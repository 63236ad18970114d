"""Exact multi-photon simulation of polarization qubits through PBS/HWP circuits.

States are sparse maps from bosonic occupation patterns over
(spatial port, polarization) modes to complex amplitudes.  None of the
circuits built here ever superpose different total photon numbers, and
coincidence postselection discards bunched terms, but the bosonic
sqrt(n!) factors are still applied so that the discarded probability is
accounted for exactly.  ``run_circuit`` keys each term by one packed
integer while it runs and returns a ``PhotonicState`` keyed by patterns.
"""

from __future__ import annotations

import json
import math
import sys

import numpy as np

from .states import StateVector

MAX_PHOTONS = 16

Mode = tuple[int, str]  # (spatial port, "H" | "V")
Pattern = tuple[tuple[Mode, int], ...]  # sorted ((mode, count), ...)
Source = tuple[str, tuple[int, ...]]  # (kind, ports), read from a README source entry

AMP_TOL = 1e-12
_S2 = 1 / math.sqrt(2)

#: each source kind's terms: the polarization of the photon on each of its ports, and the amplitude
SOURCES = {
    "plus": ((("H",), _S2), (("V",), _S2)),
    "bell_psi": ((("H", "H"), _S2), (("V", "V"), _S2)),
    # the two-vertex graph state (|+H> + |-V>)/sqrt(2), the +/- photon on the first port
    "gbell": ((("H", "H"), 0.5), (("V", "H"), 0.5), (("H", "V"), 0.5), (("V", "V"), -0.5)),
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
    postselection leaves it empty in every term.
    """

    __slots__ = ("terms", "total_photons", "ports")

    def __init__(self, terms: dict[Pattern, complex], total_photons: int | None = None,
                 ports: frozenset[int] | None = None):
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
        self.terms = cleaned
        self.total_photons = total_photons
        if ports is None:
            ports = frozenset(port for p in cleaned for (port, _), _ in p)
        self.ports = ports

    def norm_squared(self) -> float:
        return float(sum(abs(a) ** 2 for a in self.terms.values()))


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


def _hwp_matrix(angle_degrees: float) -> np.ndarray:
    """The plate at 0 or 22.5 degrees; any other angle, a bool or a string raises ValueError."""
    if type(angle_degrees) in (int, float):
        if angle_degrees == 22.5:
            return np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
        if angle_degrees == 0:
            return np.array([[1, 0], [0, -1]], dtype=complex)
    raise ValueError(f"unsupported HWP angle {angle_degrees!r}; use 0 or 22.5")


def _mode_mix_coeffs(n_h: int, n_v: int, u: np.ndarray) -> dict[tuple[int, int], complex]:
    """Second-quantized action of a 2x2 mode transform on |n_h, n_v>.

    Expands (u00 aH+ + u01 aV+)^nH (u10 aH+ + u11 aV+)^nV with the
    bosonic sqrt(n!) normalization.
    """
    total = n_h + n_v
    out: dict[tuple[int, int], complex] = {}
    for k in range(n_h + 1):
        for l in range(n_v + 1):
            m_h = k + l
            m_v = total - m_h
            coeff = (
                math.comb(n_h, k)
                * math.comb(n_v, l)
                * u[0, 0] ** k
                * u[0, 1] ** (n_h - k)
                * u[1, 0] ** l
                * u[1, 1] ** (n_v - l)
            )
            out[(m_h, m_v)] = out.get((m_h, m_v), 0) + coeff
    norm_in = math.sqrt(math.factorial(n_h) * math.factorial(n_v))
    return {
        (m_h, m_v): c * math.sqrt(math.factorial(m_h) * math.factorial(m_v)) / norm_in
        for (m_h, m_v), c in out.items()
        if abs(c) > AMP_TOL
    }


#: each basis's outcomes as weights on the H and V amplitudes of the detected photon
_OUTCOMES = {
    "HV": {"H": {"H": 1.0}, "V": {"V": 1.0}},
    "PM": {"+": {"H": _S2, "V": _S2}, "-": {"H": _S2, "V": -_S2}},
}


def extract_logical(state: PhotonicState, port_to_qubit: dict[int, int]) -> StateVector:
    """Read the polarization qubits off the listed ports: H -> 0, V -> 1.

    Every term must occupy exactly the listed ports with one photon each.
    """
    n = len(port_to_qubit)
    bit = {port: 1 << (n - 1 - i) for i, port in enumerate(port_to_qubit)}
    amps = np.zeros(2**n, dtype=complex)
    for pat, amp in state.terms.items():
        # a listed port with one photon sets its bit; n distinct bits from n modes is a fit
        idx = seen = 0
        for (port, pol), count in pat:
            b = bit.get(port, 0) if count == 1 else 0
            seen |= b
            idx |= b if pol == "V" else 0
        if len(pat) != n or seen != (1 << n) - 1:  # word the error from every term's port counts
            counts = [{q: sum(c for (p, _), c in pat if p == q) for (q, _), _ in pat} for pat in state.terms]
            for port in port_to_qubit:
                if any(per_port.get(port) != 1 for per_port in counts):
                    raise ValueError(f"port {port} does not hold exactly one photon in every term")
            extra = next(set(per_port) - set(bit) for per_port in counts if set(per_port) - set(bit))
            raise ValueError(f"terms occupy unlisted ports {sorted(extra)}")
        amps[idx] = amp
    norm = np.linalg.norm(amps)
    if norm <= AMP_TOL:
        raise ValueError("zero-probability state: no amplitude to read")
    if abs(norm - 1.0) > 1e-9:
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
            or not all(type(p) is int for p in ports) or len(ports) != len(SOURCES[kind][0][0]):
        raise ValueError(f"a source is one of {sorted(SOURCES)} with its number of integer "
                         f"ports, got {entry!r}")
    return kind, tuple(ports)


def _element_from_json(element: dict, known: frozenset[int]) -> tuple[tuple[int, ...], float | None]:
    """An element's ports and HWP angle (None for a PBS), checked against the sources."""
    kind, values = _only_item(element)
    if kind not in ("pbs", "hwp") or not isinstance(values, list) or len(values) != 2 \
            or not all(type(p) is int for p in values[:2 if kind == "pbs" else 1]):
        raise ValueError(f"unknown element {element!r}: "
                         "use {'pbs': [a, b]} or {'hwp': [port, angle]}")
    ports, angle = (tuple(values), None) if kind == "pbs" else ((values[0],), values[1])
    _require_ports(known, *ports)
    if angle is not None:
        _hwp_matrix(angle)
    return ports, angle


def _measure_from_json(entry: dict, known: frozenset[int]) -> tuple[int, str, str, dict]:
    """A measure entry's port, basis, outcome (H or + when absent) and that outcome's weights."""
    if not isinstance(entry, dict) or not set(entry) <= {"port", "basis", "outcome"} \
            or type(entry.get("port")) is not int or entry.get("basis") not in ("HV", "PM"):
        raise ValueError("a measure entry is {port: an integer, basis: 'HV' or 'PM', outcome}, "
                         f"got {entry!r}")
    port, basis = entry["port"], entry["basis"]
    outcome = entry.get("outcome", "H" if basis == "HV" else "+")
    weights = next((w for o, w in _OUTCOMES[basis].items() if o == outcome), None)
    if weights is None:
        raise ValueError(f"{outcome!r} is not an outcome of the {basis} basis")
    _require_ports(known, port)
    return port, basis, outcome, weights


def _plan(spec: dict) -> tuple[list, list[list[Source]], list[list[int]], list[int] | None, list]:
    """Check a whole circuit description, building no term: its elements, the sources joining
    before each element and after the last, the ports retiring after each element, the
    postselect list (None without the key) and the measure entries."""
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
# Inside run_circuit a term is one int: the i-th of the circuit's sorted ports
# holds its H count in bits 10i..10i+4 and its V count in the next five, so
# MAX_PHOTONS fits and the fields run in Pattern order.  Each step sums with
# ``out.get(k, 0) + amp`` in term order and drops amplitudes at or under AMP_TOL
# after each element, as tests/optics_oracle.py does on PhotonicState, so the
# amplitudes and the term order are bit-identical to it.

Terms = dict[int, complex]
_COUNT = 31  # one mode's count field
_PORT = 1023  # a port's H and V fields
_SINGLE = (1, 1 << 5)  # a port's fields holding exactly one photon, H or V
#: (a port's fields, HWP angle) -> each output fields value and coefficient; <= 2 x 152 entries
_MIX: dict[tuple[int, float], tuple[tuple[int, complex], ...]] = {}


def _join_terms(terms: Terms, sources: list[Source], shift: dict[int, int]) -> Terms:
    """Multiply the terms by more sources, on ports every term leaves empty."""
    for kind, ports in sources:
        pieces = [(sum(1 << (shift[p] + (5 if pol == "V" else 0)) for p, pol in zip(ports, pols)), pa)
                  for pols, pa in SOURCES[kind]]
        new: Terms = {}
        for key, amp in terms.items():
            for piece, pa in pieces:
                k = key | piece
                new[k] = new.get(k, 0) + amp * pa
        terms = new
    return _clean(terms)


def _pbs_terms(terms: Terms, shift_a: int, shift_b: int) -> Terms:
    """Polarizing beam splitter: H transmits, so the two ports' V fields swap."""
    va, vb = shift_a + 5, shift_b + 5
    out: Terms = {}
    for key, amp in terms.items():
        x = (key >> va ^ key >> vb) & _COUNT
        k = key ^ (x << va | x << vb)
        out[k] = out.get(k, 0) + amp
    return _clean(out)


def _hwp_terms(terms: Terms, shift: int, angle: float) -> Terms:
    """Half-wave plate on the port with fields at bit ``shift``: 22.5 degrees maps H/V to +/-,
    0 is a Pauli Z."""
    out: Terms = {}
    for key, amp in terms.items():
        fields = key >> shift & _PORT
        if not fields:
            out[key] = out.get(key, 0) + amp
            continue
        mix = _MIX.get((fields, angle))
        if mix is None:
            coeffs = _mode_mix_coeffs(fields & _COUNT, fields >> 5, _hwp_matrix(angle))
            mix = _MIX[fields, angle] = tuple((m_h | m_v << 5, c) for (m_h, m_v), c in coeffs.items())
        rest = key ^ fields << shift
        for f, c in mix:
            k = rest | f << shift
            out[k] = out.get(k, 0) + amp * c
    return _clean(out)


def _detect_terms(terms: Terms, port: int, shift: int, weights: dict[str, float]) -> tuple[Terms, float]:
    """Detect the photon at ``port`` (fields at bit ``shift``) and keep the outcome with these
    weights; returns the terms without it, renormalised unless it has probability 0, and that."""
    # the H and V amplitudes (0 when absent) at each rest of a term, in order of first sight
    by_rest: dict[int, list] = {}
    for key, amp in terms.items():
        fields = key >> shift & _PORT
        if fields not in _SINGLE:
            raise ValueError(f"port {port} does not hold exactly one photon in every term")
        pols = by_rest.setdefault(key ^ fields << shift, [0, 0])
        pols[fields >> 5] = pols[fields >> 5] + amp
    conj = [("HV".index(pol), np.conj(w)) for pol, w in weights.items()]
    kept = {}
    for rest, pols in by_rest.items():
        amp = 0
        for i, w in conj:
            amp = amp + w * pols[i]
        if abs(amp) > AMP_TOL:
            kept[rest] = amp
    prob = float(sum(abs(a) ** 2 for a in kept.values()))
    norm = math.sqrt(prob)
    return _clean({k: a / norm for k, a in kept.items()}) if prob > AMP_TOL else {}, prob


def _pattern_of(key: int, ports: list[int]) -> Pattern:
    """The occupation pattern of a packed term over these sorted ports."""
    return _pattern({(port, pol): key >> 10 * i + 5 * j & _COUNT
                     for i, port in enumerate(ports) for j, pol in enumerate("HV")})


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
    integers until the end (see above), then occupation patterns.
    """
    elements, joins, retires, postselect, measures = _plan(spec)
    ports = sorted(p for joining in joins for _, source_ports in joining for p in source_ports)
    shift = {p: 10 * i for i, p in enumerate(ports)}
    terms: Terms = {0: 1.0 + 0j}
    for (element_ports, angle), joining, retiring in zip(elements, joins, retires):
        if joining:
            terms = _join_terms(terms, joining, shift)
        if angle is None:
            terms = _pbs_terms(terms, shift[element_ports[0]], shift[element_ports[1]])
        else:
            terms = _hwp_terms(terms, shift[element_ports[0]], angle)
        for s in (shift[p] for p in retiring):
            terms = {k: a for k, a in terms.items() if k >> s & _PORT in _SINGLE}
    if joins[-1]:
        terms = _join_terms(terms, joins[-1], shift)

    prob = 1.0
    if postselect is not None:
        # N photons on N ports: a term has one on each port iff each has an odd H or V count,
        # and no term can meet a list of fewer ports or a port no source has
        odd = sum(1 << s for s in shift.values())
        kept = {k: a for k, a in terms.items() if (k | k >> 5) & odd == odd} \
            if set(postselect) == shift.keys() else {}
        prob = float(sum(abs(a) ** 2 for a in kept.values()))
        norm = math.sqrt(prob)
        terms, prob = ({}, 0.0) if prob < AMP_TOL else (_clean({k: a / norm for k, a in kept.items()}), prob)
    log = []
    for port, basis, outcome, weights in measures:
        terms, branch_prob = _detect_terms(terms, port, shift[port], weights)
        log.append({"port": port, "basis": basis, "outcome": outcome, "probability": branch_prob})
    state = PhotonicState({_pattern_of(k, ports): a for k, a in terms.items()},
                          len(ports) - len(measures),
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
