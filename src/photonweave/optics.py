"""Exact multi-photon simulation of polarization qubits through PBS/HWP circuits.

States are sparse maps from bosonic occupation patterns over
(spatial port, polarization) modes to complex amplitudes.  None of the
circuits built here ever superpose different total photon numbers, and
coincidence postselection discards bunched terms, but the bosonic
sqrt(n!) factors are still applied so that the discarded probability is
accounted for exactly.
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


def _pattern_ports(p: Pattern) -> dict[int, int]:
    ports: dict[int, int] = {}
    for (port, _), c in p:
        ports[port] = ports.get(port, 0) + c
    return ports


class PhotonicState:
    """Sparse superposition over occupation patterns; treat as immutable.

    ``ports`` are the spatial ports the state lives on: by default the
    occupied ones, but a port stays a port when interference or
    postselection leaves it empty in every term.
    """

    __slots__ = ("terms", "total_photons", "ports")

    def __init__(self, terms: dict[Pattern, complex], total_photons: int | None = None,
                 ports: frozenset[int] | None = None):
        cleaned = {p: complex(a) for p, a in terms.items() if abs(a) > AMP_TOL}
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


def _expand(terms: dict[Pattern, complex], sources: list[Source]) -> dict[Pattern, complex]:
    """Multiply a term map by more sources, on ports its terms leave empty."""
    for kind, ports in sources:
        pieces = [(tuple(((p, pol), 1) for p, pol in zip(ports, pols)), pa)
                  for pols, pa in SOURCES[kind]]
        new: dict[Pattern, complex] = {}
        for pat, amp in terms.items():
            base = dict(pat)
            for piece, pa in pieces:
                counts = dict(base)
                counts.update(piece)
                new_pat = _pattern(counts)
                new[new_pat] = new.get(new_pat, 0) + amp * pa
        terms = new
    return terms


def _require_ports(known: frozenset[int], *ports: int) -> None:
    """An element's ports: distinct, and each one of the ``known`` ports."""
    if len(ports) == 2 and ports[0] == ports[1]:
        raise ValueError("PBS needs two distinct ports")
    for p in ports:
        if p not in known:
            raise ValueError(f"unknown port {p}")


def apply_pbs(state: PhotonicState, port_a: int, port_b: int) -> PhotonicState:
    """Polarizing beam splitter: H transmits, V swaps between the two ports."""
    _require_ports(state.ports, port_a, port_b)
    out: dict[Pattern, complex] = {}
    for pat, amp in state.terms.items():
        counts = dict(pat)
        va = counts.pop((port_a, "V"), 0)
        vb = counts.pop((port_b, "V"), 0)
        if vb:
            counts[(port_a, "V")] = vb
        if va:
            counts[(port_b, "V")] = va
        new_pat = _pattern(counts)
        out[new_pat] = out.get(new_pat, 0) + amp
    return PhotonicState(out, state.total_photons, state.ports)


def _hwp_matrix(angle_degrees: float) -> np.ndarray:
    if angle_degrees == 22.5:
        return np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
    if angle_degrees == 0:
        return np.array([[1, 0], [0, -1]], dtype=complex)
    raise ValueError(f"unsupported HWP angle {angle_degrees}; use 0 or 22.5")


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


def apply_hwp(state: PhotonicState, port: int, angle_degrees: float) -> PhotonicState:
    """Half-wave plate on one port: 22.5 degrees maps H/V to +/-, 0 is a Pauli Z."""
    _require_ports(state.ports, port)
    u = _hwp_matrix(angle_degrees)
    out: dict[Pattern, complex] = {}
    for pat, amp in state.terms.items():
        counts = dict(pat)
        n_h = counts.pop((port, "H"), 0)
        n_v = counts.pop((port, "V"), 0)
        if n_h == n_v == 0:
            out[pat] = out.get(pat, 0) + amp
            continue
        for (m_h, m_v), c in _mode_mix_coeffs(n_h, n_v, u).items():
            new_counts = dict(counts)
            if m_h:
                new_counts[(port, "H")] = m_h
            if m_v:
                new_counts[(port, "V")] = m_v
            new_pat = _pattern(new_counts)
            out[new_pat] = out.get(new_pat, 0) + amp * c
    return PhotonicState(out, state.total_photons, state.ports)


def postselect_coincidence(
    state: PhotonicState, ports: list[int]
) -> tuple[PhotonicState, float]:
    """Keep patterns with exactly one photon per listed port and none elsewhere.

    Returns the renormalized kept state and the kept probability computed
    from the pre-normalization amplitudes.  Probability 0 is a value: the
    returned state is empty.
    """
    if len(set(ports)) != len(ports):
        raise ValueError("ports listed more than once")
    wanted = set(ports)
    kept: dict[Pattern, complex] = {}
    for pat, amp in state.terms.items():
        per_port = _pattern_ports(pat)
        if set(per_port) == wanted and all(c == 1 for c in per_port.values()):
            kept[pat] = amp
    prob = float(sum(abs(a) ** 2 for a in kept.values()))
    if prob < AMP_TOL:
        return PhotonicState({}, state.total_photons, state.ports), 0.0
    norm = math.sqrt(prob)
    kept = {p: a / norm for p, a in kept.items()}
    return PhotonicState(kept, state.total_photons, state.ports), prob


#: each basis's outcomes as weights on the H and V amplitudes of the detected photon
_OUTCOMES = {
    "HV": {"H": {"H": 1.0}, "V": {"V": 1.0}},
    "PM": {"+": {"H": _S2, "V": _S2}, "-": {"H": _S2, "V": -_S2}},
}


def _detect(state: PhotonicState, port: int, weights: dict[str, float]) -> tuple[float, PhotonicState]:
    """Detect the photon at one port; keep the branch of the outcome with these weights.

    Returns the branch probability and the post-state without the photon,
    renormalised unless the probability is 0.
    """
    # amplitude organized by the polarization present at `port`
    by_rest: dict[Pattern, dict[str, complex]] = {}
    for pat, amp in state.terms.items():
        here = [(pol, c) for (p, pol), c in pat if p == port]
        if len(here) != 1 or here[0][1] != 1:
            raise ValueError(f"port {port} does not hold exactly one photon in every term")
        rest = tuple(item for item in pat if item[0][0] != port)
        bucket = by_rest.setdefault(rest, {})
        bucket[here[0][0]] = bucket.get(here[0][0], 0) + amp
    terms = {}
    for rest, pols in by_rest.items():
        amp = sum(np.conj(w) * pols.get(pol, 0) for pol, w in weights.items())
        if abs(amp) > AMP_TOL:
            terms[rest] = amp
    prob = float(sum(abs(a) ** 2 for a in terms.values()))
    post = PhotonicState(
        {p: a / math.sqrt(prob) for p, a in terms.items()} if prob > AMP_TOL else {},
        state.total_photons - 1, state.ports - {port})
    return prob, post


def extract_logical(state: PhotonicState, port_to_qubit: dict[int, int]) -> StateVector:
    """Read the polarization qubits off the listed ports: H -> 0, V -> 1.

    Every term must occupy exactly the listed ports with one photon each.
    """
    ports = list(port_to_qubit)
    for port in ports:
        if any(_pattern_ports(pat).get(port, 0) != 1 for pat in state.terms):
            raise ValueError(f"port {port} does not hold exactly one photon in every term")
    for pat in state.terms:
        extra = set(_pattern_ports(pat)) - set(ports)
        if extra:
            raise ValueError(f"terms occupy unlisted ports {sorted(extra)}")
    n = len(ports)
    qubits = tuple(port_to_qubit[p] for p in ports)
    amps = np.zeros(2**n, dtype=complex)
    for pat, amp in state.terms.items():
        pols = dict(((port, pol) for (port, pol), _ in pat))
        idx = 0
        for i, port in enumerate(ports):
            if pols[port] == "V":
                idx |= 1 << (n - 1 - i)
        amps[idx] = amp
    norm = np.linalg.norm(amps)
    if norm <= AMP_TOL:
        raise ValueError("zero-probability state: no amplitude to read")
    if abs(norm - 1.0) > 1e-9:
        amps = amps / norm
    return StateVector(amps, qubits)


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


def _join(state: PhotonicState, sources: list[Source]) -> PhotonicState:
    if not sources:
        return state
    ports = [p for _, source_ports in sources for p in source_ports]
    return PhotonicState(_expand(state.terms, sources), state.total_photons + len(ports),
                         state.ports.union(ports))


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
    probability are those of postselecting at the end.
    """
    for key, value in spec.items():
        if key not in ("sources", "elements", "postselect", "measure"):
            raise ValueError(f"a circuit description does not read {key!r}")
        if not isinstance(value, list):
            raise ValueError(f"a circuit description's {key} is a list")
    sources = [_source_from_json(s) for s in spec.get("sources", [])]
    known = _check_sources(sources)
    elements = [_element_from_json(e, known) for e in spec.get("elements", [])]
    postselect = spec.get("postselect", [])
    if not all(type(p) is int for p in postselect) or len(set(postselect)) < len(postselect):
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
    for p in postselect:
        if p in last:
            retires[last[p]].append(p)

    state = PhotonicState({(): 1.0 + 0j}, 0, frozenset())
    for (ports, angle), joining, retiring in zip(elements, joins, retires):
        state = _join(state, joining)
        if angle is None:
            state = apply_pbs(state, *ports)
        else:
            state = apply_hwp(state, ports[0], angle)
        for p in retiring:
            kept = {pat: a for pat, a in state.terms.items() if _pattern_ports(pat).get(p) == 1}
            state = PhotonicState(kept, state.total_photons, state.ports)
    state = _join(state, joins[-1])

    prob = 1.0
    if "postselect" in spec:
        state, prob = postselect_coincidence(state, postselect)
    log = []
    for port, basis, outcome, weights in measures:
        branch_prob, state = _detect(state, port, weights)
        log.append({"port": port, "basis": basis, "outcome": outcome, "probability": branch_prob})
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
