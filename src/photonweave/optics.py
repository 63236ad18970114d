"""Exact multi-photon simulation of polarization qubits through PBS/HWP circuits.

States are sparse maps from bosonic occupation patterns over
(spatial port, polarization) modes to complex amplitudes.  None of the
circuits built here ever superpose different total photon numbers, and
coincidence postselection discards bunched terms, but the bosonic
sqrt(n!) factors are still applied so that the discarded probability is
accounted for exactly.  ``run_circuit`` computes in integers: each term
is one packed integer key with an integer coefficient of a creation-
operator monomial, under one global scale 2^(-h/2), so every
probability is a ratio of exact sums.  Floats appear once, in the
``PhotonicState`` it returns on the same keys.  Every state holds that
one form, packed at construction from patterns and decoded to patterns
on their first read; ``extract_logical`` reads qubits off the keys.
``run_circuit`` checks a whole description from outside before its
engine, ``_run``, builds a term; the protocol builders' own circuits go
straight to the engine.
"""

from __future__ import annotations

import json
import math
import sys

import numpy as np

from .states import NORM_TOL, StateVector

MAX_PHOTONS = 16

Mode = tuple[int, str]  # (spatial port, "H" | "V")
Pattern = tuple[tuple[Mode, int], ...]  # sorted ((mode, count), ...)
Source = tuple[str, tuple[int, ...]]  # (kind, ports), read from a README source entry
#: what ``_run`` runs: elements, joins, retirements, postselect ports and measures
Schedule = tuple[list, list[list[Source]], list[list[int]], list[int] | None, list]

AMP_TOL = 1e-12

#: each source kind's h and terms: the polarization of the photon on each of its ports and
#: the integer coefficient, so a term's amplitude is the coefficient times 2^(-h/2)
SOURCES = {
    "plus": (1, ((("H",), 1), (("V",), 1))),
    "bell_psi": (1, ((("H", "H"), 1), (("V", "V"), 1))),
    # the two-vertex graph state (|+H> + |-V>)/sqrt(2), the +/- photon on the first port
    "gbell": (2, ((("H", "H"), 1), (("V", "H"), 1), (("H", "V"), 1), (("V", "V"), -1))),
}


def _pattern(counts: dict[Mode, int]) -> Pattern:
    return tuple(sorted((m, c) for m, c in counts.items() if c))


def _clean(terms: dict) -> dict:
    """Drop the amplitudes at or under AMP_TOL; the others become Python complex."""
    return {k: complex(a) for k, a in terms.items() if abs(a) > AMP_TOL}


class PhotonicState:
    """Sparse superposition over occupation patterns; treat as immutable.

    ``ports`` are the spatial ports the state lives on: by default the
    occupied ones, but a port stays a port when interference or
    postselection leaves it empty in every term.  Every state holds
    ``run_circuit``'s packed keys over its sorted ports, occupied ones
    included: a state built from patterns packs them here and keeps them
    as its ``terms``, and one built from keys decodes ``terms`` once,
    when they are first read.
    """

    __slots__ = ("_terms", "_keys", "_shift", "total_photons", "ports")

    def __init__(self, terms: dict[Pattern, complex], total_photons: int | None = None,
                 ports: frozenset[int] | None = None):
        if any(_pattern(dict(p)) != p for p in terms):
            raise ValueError("a pattern lists each mode once, in sorted order, with no zero count")
        cleaned = _clean(terms)
        totals = {sum(c for _, c in p) for p in cleaned}
        if total_photons is None:
            if len(totals) > 1:
                raise ValueError(f"mixed total photon numbers: {sorted(totals)}")
            total_photons = totals.pop() if totals else 0
        elif totals and totals != {total_photons}:
            raise ValueError("pattern photon counts disagree with total_photons")
        if total_photons > MAX_PHOTONS:
            raise ValueError(f"at most {MAX_PHOTONS} photons supported")
        occupied = frozenset(port for p in cleaned for (port, _), _ in p)
        self.ports = occupied if ports is None else ports
        self._shift = shift = {p: 10 * i for i, p in enumerate(sorted(occupied.union(self.ports)))}
        self._keys = {sum(c << shift[port] + (5 if pol == "V" else 0) for (port, pol), c in pat): a
                      for pat, a in cleaned.items()}
        self._terms, self.total_photons = cleaned, total_photons

    @classmethod
    def _of_keys(cls, keys: dict[int, complex], shift: dict[int, int], total_photons: int,
                 ports: frozenset[int]) -> PhotonicState:
        """A state on packed keys: ``shift`` puts the sorted ports' fields 10 bits apart."""
        state = object.__new__(cls)
        state._terms, state._keys, state._shift = None, keys, shift
        state.total_photons, state.ports = total_photons, ports
        return state

    @property
    def terms(self) -> dict[Pattern, complex]:
        if self._terms is None:
            self._terms = {_pattern_of(key, self._shift): a for key, a in self._keys.items()}
        return self._terms

    def norm_squared(self) -> float:
        return float(sum(abs(a) ** 2 for a in self._keys.values()))


def _check_sources(sources: list[Source]) -> frozenset[int]:
    """Distinct nonnegative ports, one photon each, within the photon limit; returns the ports."""
    used: set[int] = set()
    for _, ports in sources:
        if len(set(ports)) < len(ports):
            raise ValueError("source ports must be distinct")
        for p in ports:
            if p in used:
                raise ValueError(f"port {p} used by two sources")
            if p < 0:
                raise ValueError("spatial ports are nonnegative")
            used.add(p)
    if len(used) > MAX_PHOTONS:  # one photon per source port
        raise ValueError(f"at most {MAX_PHOTONS} photons supported")
    return frozenset(used)


def _require_ports(known: frozenset[int], *ports: int) -> None:
    """An element's ports: distinct, and each one of the ``known`` ports."""
    if len(ports) == 2 and ports[0] == ports[1]:
        raise ValueError("PBS needs two distinct ports")
    for p in ports:
        if p not in known:
            raise ValueError(f"unknown port {p}")


#: each basis's outcomes: the h of the detection and the outcome's H and V weights
_OUTCOMES = {
    "HV": {"H": (0, (1, 0)), "V": (0, (0, 1))},
    "PM": {"+": (1, (1, 1)), "-": (1, (1, -1))},
}


def extract_logical(state: PhotonicState, port_to_qubit: dict[int, int]) -> StateVector:
    """Read the polarization qubits off the listed ports: H -> 0, V -> 1.

    Every term must occupy exactly the listed ports with one photon each.
    Amplitudes whose squared norm is within ``NORM_TOL`` of 1 are read as
    they are; any others are renormalised.
    """
    keys, shift = state._keys, state._shift
    n = len(port_to_qubit)
    # one bit at each listed port's H field; a port no key has gets a field past them all
    fields = [shift.get(port, 10 * (len(shift) + i)) for i, port in enumerate(port_to_qubit)]
    ones = sum(1 << f for f in fields)
    qubit_bit = {1 << f: 1 << n - 1 - i for i, f in enumerate(fields)}
    amps = np.zeros(1 << n, dtype=complex)
    for key, amp in keys.items():
        # a fit has one photon, H or V, on each listed port and nothing else
        h, v = key & ones, key >> 5 & ones
        if key != h | v << 5 or h + v != ones:  # word the error from every term's port counts
            counts = [{p: (f & _COUNT) + (f >> 5) for p, s in shift.items() if (f := k >> s & _PORT)}
                      for k in keys]
            for port in port_to_qubit:
                if any(per_port.get(port) != 1 for per_port in counts):
                    raise ValueError(f"port {port} does not hold exactly one photon in every term")
            extra = next(e for per_port in counts if (e := per_port.keys() - port_to_qubit))
            raise ValueError(f"terms occupy unlisted ports {sorted(extra)}")
        index = 0
        while v:  # each V photon sets its qubit's bit
            low = v & -v
            index |= qubit_bit[low]
            v ^= low
        amps[index] = amp
    if abs(float(np.sum(np.abs(amps) ** 2)) - 1.0) > NORM_TOL:  # as StateVector tests it
        norm = np.linalg.norm(amps)
        if norm <= AMP_TOL:
            raise ValueError("zero-probability state: no amplitude to read")
        amps = amps / norm
    return StateVector(amps, tuple(port_to_qubit.values()))


# -- circuit description JSON ---------------------------------------------------


def _only_item(entry) -> tuple:
    """The key and value of a one-key dict; (None, None) for anything else."""
    is_one = isinstance(entry, dict) and len(entry) == 1
    return next(iter(entry.items())) if is_one else (None, None)


def _source_from_json(entry: dict) -> Source:
    """A README source entry, ``{kind: ports}``: a kind of ``SOURCES`` with its number of
    integer ports, where a bare port is a one-port list."""
    kind, ports = _only_item(entry)
    ports = [ports] if type(ports) is int else ports
    if kind not in SOURCES or not isinstance(ports, list) \
            or not all(type(p) is int for p in ports) or len(ports) != len(SOURCES[kind][1][0][0]):
        raise ValueError(f"a source is one of {sorted(SOURCES)} with its number of integer "
                         f"ports, got {entry!r}")
    return kind, tuple(ports)


def _element(element: dict) -> tuple[tuple[int, ...], float | None]:
    """The ports and HWP angle (None for a PBS) of an element entry of the right shape."""
    (kind, values), = element.items()
    return (tuple(values), None) if kind == "pbs" else ((values[0],), values[1])


def _element_from_json(element: dict, known: frozenset[int]) -> tuple[tuple[int, ...], float | None]:
    """An element's ports and HWP angle (None for a PBS), checked against the sources."""
    kind, values = _only_item(element)
    if kind not in ("pbs", "hwp") or not isinstance(values, list) or len(values) != 2 \
            or not all(type(p) is int for p in values[:2 if kind == "pbs" else 1]):
        raise ValueError(f"unknown element {element!r}: "
                         "use {'pbs': [a, b]} or {'hwp': [port, angle]}")
    ports, angle = _element(element)
    _require_ports(known, *ports)
    if angle is not None and (type(angle) not in (int, float) or angle not in (0, 22.5)):
        raise ValueError(f"unsupported HWP angle {angle!r}; use 0 or 22.5")
    return ports, angle


def _measure_from_json(entry: dict, known: frozenset[int]) -> tuple[int, str, str]:
    """A measure entry's port, basis and outcome (H or + when absent)."""
    if not isinstance(entry, dict) or not set(entry) <= {"port", "basis", "outcome"} \
            or type(entry.get("port")) is not int or entry.get("basis") not in ("HV", "PM"):
        raise ValueError("a measure entry is {port: an integer, basis: 'HV' or 'PM', outcome}, "
                         f"got {entry!r}")
    port, basis = entry["port"], entry["basis"]
    outcome = entry.get("outcome", "H" if basis == "HV" else "+")
    if not any(o == outcome for o in _OUTCOMES[basis]):  # an unhashable outcome is no outcome
        raise ValueError(f"{outcome!r} is not an outcome of the {basis} basis")
    _require_ports(known, port)
    return port, basis, outcome


def _plan(spec: dict) -> Schedule:
    """Check a whole circuit description, building no term, and return its ``_schedule``;
    the postselect list is None without the key."""
    for key, value in spec.items():
        if key not in ("sources", "elements", "postselect", "measure"):
            raise ValueError(f"a circuit description does not read {key!r}")
        if not isinstance(value, list):
            raise ValueError(f"a circuit description's {key} is a list")
    sources = [_source_from_json(s) for s in spec.get("sources", [])]
    known = _check_sources(sources)
    elements = [_element_from_json(e, known) for e in spec.get("elements", [])]
    postselect = spec.get("postselect")
    if postselect is not None and (not all(type(p) is int for p in postselect)
                                   or len(set(postselect)) < len(postselect)):
        raise ValueError("postselect lists integer ports, none more than once")
    measures = [_measure_from_json(m, known) for m in spec.get("measure", [])]
    if len({port for port, *_ in measures}) < len(measures):
        raise ValueError("a port is measured more than once")
    return _schedule(sources, elements, postselect, measures)


def _schedule(sources: list[Source], elements: list, postselect: list[int] | None,
              measures: list) -> Schedule:
    """The elements, the sources joining before each element and after the last, the ports
    retiring after each element, the postselect list and the (port, basis, outcome) measures."""
    first: dict[int, int] = {}
    last: dict[int, int] = {}
    for i, (ports, _) in enumerate(elements):
        for p in ports:
            first.setdefault(p, i)
            last[p] = i
    joins: list[list[Source]] = [[] for _ in range(len(elements) + 1)]
    for source in sources:
        joins[min(first.get(p, len(elements)) for p in source[1])].append(source)
    retires: list[list[int]] = [[] for _ in elements]
    for p in postselect or []:
        if p in last:
            retires[last[p]].append(p)
    return elements, joins, retires, postselect, measures


# -- packed terms ------------------------------------------------------------------
#
# Inside run_circuit a term is one int key and one int coefficient.  The i-th of
# the circuit's sorted ports holds its H count in bits 10i..10i+4 and its V count
# in the next five, so MAX_PHOTONS fits and the fields run in Pattern order.  The
# coefficient multiplies the unnormalised creation-operator monomial of those
# counts, and the state is 2^(-h/2) times the sum of the terms, one h for all.
# A coefficient a + b*sqrt(2) keeps a under the key and b under the key with the
# _ROOT2 bit set; a pattern stays while either part is nonzero, so the patterns
# keep the order of first sight the float engine in tests/optics_oracle.py has.

Terms = dict[int, int]
_COUNT = 31  # one mode's count field
_PORT = 1023  # a port's H and V fields
_SINGLE = (1, 1 << 5)  # a port's fields holding exactly one photon, H or V
_ROOT2 = 1 << 10 * MAX_PHOTONS  # the key of a coefficient's sqrt(2) part
#: the count bits worth 2 or more in every field: a key without them has all m! = 1
_MULTI = sum(30 << 5 * i for i in range(2 * MAX_PHOTONS))


def _real(p: int, q: int, r: int = 1) -> float:
    """(p + q sqrt(2)) / r: p / r correctly rounded when q is 0, else the float nearest
    a number within a relative 2^-62 of it (|p^2 - 2 q^2| >= 1 keeps it away from 0)."""
    if not q:
        return p / r
    bits = 64 + max(p.bit_length(), q.bit_length())
    root = math.isqrt(2 * q * q << 2 * bits)  # |q| sqrt(2) 2^bits, less than 1 under
    return ((p << bits) + (root if q > 0 else -root)) / (r << bits)


def _ratio(num: tuple[int, int], den: tuple[int, int]) -> float:
    """(x1 + y1 sqrt(2)) / (x0 + y0 sqrt(2)) through ``_real``, rationalised by the conjugate."""
    (x1, y1), (x0, y0) = num, den
    return _real(x1 * x0 - 2 * y1 * y0, y1 * x0 - x1 * y0, x0 * x0 - 2 * y0 * y0)


def _factorials(key: int) -> int:
    """The product of m! over the counts of a packed key."""
    f = 1
    while key:
        f *= math.factorial(key & _COUNT)
        key >>= 5
    return f


def _norm2(terms: Terms) -> tuple[int, int]:
    """The squared norm: the sum over the patterns of |a + b sqrt(2)|^2 times the product
    of m!, as the (x, y) of x + y sqrt(2)."""
    x = y = 0
    for key, c in terms.items():
        f = _factorials(key) if key & _MULTI else 1
        if key < _ROOT2:
            x += c * c * f
        else:
            x += 2 * c * c * f
            y += 2 * c * terms.get(key ^ _ROOT2, 0) * f
    return x, y


def _nonzero(terms: Terms) -> Terms:
    """The terms of every pattern with a nonzero part."""
    if 0 not in terms.values():
        return terms
    return {k: c for k, c in terms.items() if c or terms.get(k ^ _ROOT2)}


def _join_int(terms: Terms, sources: list[Source], shift: dict[int, int]) -> Terms:
    """Multiply the terms by more sources, on ports every term leaves empty."""
    for kind, ports in sources:
        pieces = [(sum(1 << (shift[p] + (5 if pol == "V" else 0)) for p, pol in zip(ports, pols)), pc)
                  for pols, pc in SOURCES[kind][1]]
        terms = {key | piece: c * pc for key, c in terms.items() for piece, pc in pieces}
    return terms


def _pbs_int(terms: Terms, shift_a: int, shift_b: int) -> Terms:
    """Polarizing beam splitter: H transmits, so the two ports' V fields swap."""
    va, vb = shift_a + 5, shift_b + 5
    both = 1 << va | 1 << vb
    return {key ^ ((key >> va ^ key >> vb) & _COUNT) * both: c for key, c in terms.items()}


def _hadamard(fields: int, flag: int, shift: int, top: int) -> tuple[tuple[int, int], ...]:
    """The 22.5-degree plate on a port's fields, H -> H + V and V -> H - V, times
    sqrt(2)^(top - photons) so every term shares the scale: each output's fields (at
    bit ``shift``) with its _ROOT2 flag, and its coefficient, in the float engine's order."""
    n_h, n_v = fields & _COUNT, fields >> 5
    e = top - n_h - n_v
    scale = 1 << e // 2
    if e % 2:  # (a + b sqrt(2)) sqrt(2) = 2b + a sqrt(2)
        scale <<= 1 if flag else 0
        flag ^= _ROOT2
    out: dict[int, int] = {}
    for k in range(n_h + 1):
        for l in range(n_v + 1):
            c = math.comb(n_h, k) * math.comb(n_v, l) * (-1) ** (n_v - l)
            out[k + l] = out.get(k + l, 0) + c
    return tuple(((m_h | (n_h + n_v - m_h) << 5) << shift | flag, c * scale)
                 for m_h, c in out.items() if c)


def _hwp_int(terms: Terms, shift: int, angle: float) -> tuple[Terms, int]:
    """Half-wave plate on the port with fields at bit ``shift``: 22.5 degrees maps H/V to
    +/-, 0 is a Pauli Z.  Returns the terms and the step's h: the most photons on the port."""
    if angle == 0:  # V photons flip the sign
        odd_v = 1 << shift + 5
        return {key: -c if key & odd_v else c for key, c in terms.items()}, 0
    select = _PORT << shift | _ROOT2
    found = {key & select for key in terms}
    top = max(((s >> shift & _COUNT) + (s >> shift + 5 & _COUNT) for s in found), default=0)
    mixes = {s: _hadamard(s >> shift & _PORT, s & _ROOT2, shift, top) for s in found}
    out: Terms = {}
    for key, c in terms.items():
        s = key & select
        rest = key ^ s
        for bits, m in mixes[s]:
            k = rest | bits
            out[k] = out.get(k, 0) + c * m
    return _nonzero(out), top


def _detect_int(terms: Terms, port: int, shift: int, weights: tuple[int, int]) -> Terms:
    """Detect the photon at ``port`` (fields at bit ``shift``) and keep the outcome with
    these H and V weights; returns the terms without it, unnormalised."""
    out: Terms = {}
    for key, c in terms.items():
        fields = key >> shift & _PORT
        if fields not in _SINGLE:
            raise ValueError(f"port {port} does not hold exactly one photon in every term")
        rest = key ^ fields << shift
        out[rest] = out.get(rest, 0) + weights[fields >> 5] * c
    return _nonzero(out)


def _pattern_of(key: int, shift: dict[int, int]) -> Pattern:
    """The occupation pattern of a packed term whose ports, in sorted order, hold their
    fields at bits ``shift[port]``, 10 bits apart."""
    pattern = []
    for port in shift:
        if key & _PORT:
            if key & _COUNT:
                pattern.append(((port, "H"), key & _COUNT))
            if key >> 5 & _COUNT:
                pattern.append(((port, "V"), key >> 5 & _COUNT))
        key >>= 10
    return tuple(pattern)


def _amplitudes(terms: Terms, norm: tuple[int, int]) -> dict[int, complex]:
    """Each pattern's amplitude by key: its coefficient times the root of its m! product,
    over the root of ``norm``, the terms' ``_norm2``; those at or under AMP_TOL go."""
    values: dict[int, int | float] = terms
    if any(key >= _ROOT2 for key in terms):  # one value per pattern, in order of first sight
        values = {}
        for key in terms:
            key &= _ROOT2 - 1
            if key not in values:
                values[key] = _real(terms.get(key, 0), terms.get(key | _ROOT2, 0))
    root = math.sqrt(_real(*norm)) if terms else 1.0
    amps: dict[int, float] = {}
    for key, v in values.items():
        if key & _MULTI:
            v *= math.sqrt(_factorials(key))
        amps[key] = v / root
    return _clean(amps)


def run_circuit(spec: dict) -> tuple[PhotonicState, float, list[dict]]:
    """Run a circuit description dict; see the package README for the schema.

    Keys: sources (list of ``SOURCES`` entries), elements (list of
    {"pbs": [a, b]} or {"hwp": [port, angle]}), postselect (port list),
    measure (list of {"port": p, "basis": "HV"|"PM", "outcome": o}, where
    the outcome defaults to H or +).  Returns the final state, the
    postselection probability (1.0 without a postselect key) and one
    {port, basis, outcome, probability} entry per measurement.

    The whole description is checked before any term is built: another
    key, a malformed entry, an element or a measurement on a port no
    source has, a repeated postselect port or a port measured twice
    raises ValueError.  Each source joins the state just before the first
    element on its ports, and each postselected port retires after the
    last element on it: the terms without exactly one photon there are
    dropped, unrenormalised.  No later element touches a retired port, so the result and the
    probability are those of postselecting at the end.  Terms are packed
    integers with integer coefficients until the end (see above); every
    probability is a ratio of exact sums, and the state is normalised
    once, on return.
    """
    return _run(*_plan(spec))


def _run(elements: list, joins: list[list[Source]], retires: list[list[int]],
         postselect: list[int] | None, measures: list) -> tuple[PhotonicState, float, list[dict]]:
    """``run_circuit``'s engine, on the ``_schedule`` of a checked description or a builder's circuit."""
    ports = sorted(p for joining in joins for _, source_ports in joining for p in source_ports)
    shift = {p: 10 * i for i, p in enumerate(ports)}
    terms: Terms = {0: 1}
    h = sum(SOURCES[kind][0] for joining in joins for kind, _ in joining)
    for (element_ports, angle), joining, retiring in zip(elements, joins, retires):
        if joining:
            terms = _join_int(terms, joining, shift)
        if angle is None:
            terms = _pbs_int(terms, shift[element_ports[0]], shift[element_ports[1]])
        else:
            terms, dh = _hwp_int(terms, shift[element_ports[0]], angle)
            h += dh
        for s in (shift[p] for p in retiring):
            terms = {k: c for k, c in terms.items() if k >> s & _PORT in _SINGLE}
    if joins[-1]:
        terms = _join_int(terms, joins[-1], shift)

    prob = 1.0
    # the elements keep the sources' squared norm 2^h; only postselected ports retire
    norm = (1 << h, 0)
    if postselect is not None:
        # N photons on N ports: retirement left one photon on each listed port an element
        # touches and a port no element touches holds its source's one, so a list of every
        # port keeps every term; no term can meet a list of fewer ports or a port no source has
        if set(postselect) != shift.keys():
            terms = {}
        kept = _norm2(terms)
        prob, norm = _ratio(kept, norm), kept
    log = []
    for port, basis, outcome in measures:
        dh, weights = _OUTCOMES[basis][outcome]
        terms = _detect_int(terms, port, shift[port], weights)
        before, norm = norm, _norm2(terms)
        branch_prob = _ratio(norm, (before[0] << dh, before[1] << dh)) if terms else 0.0
        log.append({"port": port, "basis": basis, "outcome": outcome, "probability": branch_prob})
    state = PhotonicState._of_keys(_amplitudes(terms, norm), shift, len(ports) - len(measures),
                                   frozenset(ports).difference(port for port, *_ in measures))
    return state, prob, log


def state_to_json_dict(state: PhotonicState) -> dict:
    terms = []
    for pat, amp in sorted(state.terms.items()):
        terms.append(
            {
                "occupations": [[port, pol, count] for (port, pol), count in pat],
                "amplitude": [amp.real, amp.imag],
            }
        )
    return {"total_photons": state.total_photons, "terms": terms}


def _is_occupation(item) -> bool:
    """[port, 'H' or 'V', count] with an integer port and a positive integer count."""
    return (isinstance(item, list) and len(item) == 3 and type(item[0]) is int
            and item[1] in ("H", "V") and type(item[2]) is int and item[2] > 0)


def state_from_json_dict(payload: dict) -> PhotonicState:
    """Read a state dump; a malformed term or photon count raises ValueError."""
    if not isinstance(payload, dict) or not isinstance(payload.get("terms"), list):
        raise ValueError("a state dump is an object listing its terms")
    total = payload.get("total_photons")
    if total is not None and (type(total) is not int or total < 0):
        raise ValueError("total_photons is a nonnegative integer")
    terms: dict[Pattern, complex] = {}
    for t in payload["terms"]:
        t = t if isinstance(t, dict) else {}
        occupations, amplitude = t.get("occupations"), t.get("amplitude")
        if not isinstance(occupations, list) or not all(map(_is_occupation, occupations)):
            raise ValueError("occupations are [port, 'H' or 'V', positive count] lists")
        # the bound rejects inf, NaN and integers too large for a float
        if not isinstance(amplitude, list) or len(amplitude) != 2 or not all(
            type(x) in (int, float) and abs(x) <= sys.float_info.max for x in amplitude
        ):
            raise ValueError("an amplitude is two finite numbers [re, im]")
        counts = {(port, pol): count for port, pol, count in occupations}
        if len(counts) < len(occupations):
            raise ValueError("a term lists each (port, polarization) mode once")
        pattern = _pattern(counts)
        if pattern in terms:
            raise ValueError("a state dump lists each occupation pattern once")
        terms[pattern] = complex(*amplitude)
    return PhotonicState(terms, total)


def state_to_json(state: PhotonicState) -> str:
    return json.dumps(state_to_json_dict(state), sort_keys=True)


def state_from_json(text: str) -> PhotonicState:
    return state_from_json_dict(json.loads(text))
