"""The slow optics paths, kept as the test oracles for ``optics.run_circuit``.

The element primitives act on a ``PhotonicState`` keyed by sorted
occupation patterns.  ``run_tuples`` is ``run_circuit`` on them, one
state per step: the packed-integer engine must match its terms, their
order and every probability bit for bit.  ``prepare`` builds the full
product of the sources, ``measure_polarization`` returns every detection
branch, and ``composed`` runs a circuit description element by element
on the whole state, postselecting and measuring only at the end.
"""

import math

import numpy as np

from photonweave.optics import (
    AMP_TOL,
    SOURCES,
    Pattern,
    PhotonicState,
    Source,
    _check_sources,
    _hwp_matrix,
    _mode_mix_coeffs,
    _pattern,
    _plan,
    _require_ports,
    _source_from_json,
)


def _pattern_ports(p: Pattern) -> dict[int, int]:
    ports: dict[int, int] = {}
    for (port, _), c in p:
        ports[port] = ports.get(port, 0) + c
    return ports


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


def _join(state: PhotonicState, sources: list[Source]) -> PhotonicState:
    if not sources:
        return state
    ports = [p for _, source_ports in sources for p in source_ports]
    return PhotonicState(_expand(state.terms, sources), state.total_photons + len(ports),
                         state.ports.union(ports))


def run_tuples(spec: dict) -> tuple[PhotonicState, float, list[dict]]:
    """``optics.run_circuit`` on pattern-keyed states, one ``PhotonicState`` per step."""
    elements, joins, retires, postselect, measures = _plan(spec)
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
    if postselect is not None:
        state, prob = postselect_coincidence(state, postselect)
    log = []
    for port, basis, outcome, weights in measures:
        branch_prob, state = _detect(state, port, weights)
        log.append({"port": port, "basis": basis, "outcome": outcome, "probability": branch_prob})
    return state, prob, log


def prepare(entries: list[dict]) -> PhotonicState:
    """Tensor product of the sources, given as README entries; errors on port collisions."""
    sources = [_source_from_json(entry) for entry in entries]
    _check_sources(sources)
    return PhotonicState(_expand({(): 1.0 + 0j}, sources))


def measure_polarization(
    state: PhotonicState, port: int, basis: str
) -> list[tuple[str, float, PhotonicState]]:
    """Detect the photon at one port in the HV or PM basis.

    Returns every outcome branch as (outcome, probability, post-state);
    the photon is removed from the state.  Probabilities sum to 1.
    """
    if basis not in ("HV", "PM"):
        raise ValueError("basis must be 'HV' or 'PM'")
    for pat in state.terms:
        if _pattern_ports(pat).get(port, 0) != 1:
            raise ValueError(f"port {port} does not hold exactly one photon in every term")
    # amplitude organized by the polarization present at `port`
    by_rest: dict[Pattern, dict[str, complex]] = {}
    for pat, amp in state.terms.items():
        counts = dict(pat)
        if counts.pop((port, "H"), 0):
            pol = "H"
        else:
            counts.pop((port, "V"))
            pol = "V"
        rest = _pattern(counts)
        bucket = by_rest.setdefault(rest, {})
        bucket[pol] = bucket.get(pol, 0) + amp

    if basis == "HV":
        combos = {"H": {"H": 1.0}, "V": {"V": 1.0}}
    else:
        s = 1 / math.sqrt(2)
        combos = {"+": {"H": s, "V": s}, "-": {"H": s, "V": -s}}

    branches = []
    for outcome, weights in combos.items():
        terms = {}
        for rest, pols in by_rest.items():
            amp = sum(np.conj(w) * pols.get(pol, 0) for pol, w in weights.items())
            if abs(amp) > AMP_TOL:
                terms[rest] = amp
        prob = float(sum(abs(a) ** 2 for a in terms.values()))
        post = PhotonicState(
            {p: a / math.sqrt(prob) for p, a in terms.items()} if prob > AMP_TOL else {},
            state.total_photons - 1, state.ports - {port})
        branches.append((outcome, prob, post))
    return branches


def composed(spec):
    """The slow path run_circuit must match: prepare every source, run every
    element on the whole state, then postselect and measure."""
    state = prepare(spec["sources"])
    for element in spec["elements"]:
        if "pbs" in element:
            state = apply_pbs(state, *element["pbs"])
        else:
            state = apply_hwp(state, *element["hwp"])
    prob = 1.0
    if "postselect" in spec:
        state, prob = postselect_coincidence(state, spec["postselect"])
    log = []
    for m in spec.get("measure", []):
        branches = {o: (p, post) for o, p, post in measure_polarization(state, m["port"], m["basis"])}
        picked = m.get("outcome", "H" if m["basis"] == "HV" else "+")
        branch_prob, state = branches[picked]
        log.append({"port": m["port"], "basis": m["basis"], "outcome": picked,
                    "probability": branch_prob})
    return state, prob, log
