"""The float optics paths, kept as the test oracles for ``optics.run_circuit``.

The element primitives act on a ``PhotonicState`` keyed by sorted
occupation patterns.  ``run_tuples`` is ``run_circuit``'s schedule on
them, one state per step, and ``run_packed`` is the same schedule on
packed-integer keys with float amplitudes: the two match in their terms,
their order and every probability bit for bit, and the exact integer
engine of ``run_circuit`` matches them within a rounding bound.
``prepare`` builds the full product of the sources,
``measure_polarization`` returns every detection branch, and
``composed`` runs a circuit description element by element on the whole
state, postselecting and measuring only at the end.
``pattern_extract_logical`` reads the qubits off each term's pattern,
the reference for ``optics.extract_logical``'s read-out of packed keys.
``protocol_description`` writes a protocol builder's circuit as a README
description, and ``described_optics`` runs it through ``run_circuit``
and ``protocols._optics``'s read-out: the reference for ``_optics``,
which runs the circuit on the engine without a description.
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
    _clean,
    _pattern,
    _plan,
    _require_ports,
    _source_from_json,
    extract_logical,
    run_circuit,
)
from photonweave.states import NORM_TOL, StateVector

#: how far the exact engine's amplitudes and probabilities may sit from the float engine's:
#: the float engine rounds at every step, the exact one once at the end
FLOAT_ENGINE_TOL = 1e-14

_S2 = 1 / math.sqrt(2)
#: each source kind's terms with float amplitudes: the coefficient over sqrt(2^h)
AMPLITUDES = {kind: tuple((pols, c / math.sqrt(2**h)) for pols, c in kind_terms)
              for kind, (h, kind_terms) in SOURCES.items()}
#: each basis's outcomes as weights on the H and V amplitudes of the detected photon
OUTCOMES = {
    "HV": {"H": {"H": 1.0}, "V": {"V": 1.0}},
    "PM": {"+": {"H": _S2, "V": _S2}, "-": {"H": _S2, "V": -_S2}},
}


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


def _pattern_ports(p: Pattern) -> dict[int, int]:
    ports: dict[int, int] = {}
    for (port, _), c in p:
        ports[port] = ports.get(port, 0) + c
    return ports


def _expand(terms: dict[Pattern, complex], sources: list[Source]) -> dict[Pattern, complex]:
    """Multiply a term map by more sources, on ports its terms leave empty."""
    for kind, ports in sources:
        pieces = [(tuple(((p, pol), 1) for p, pol in zip(ports, pols)), pa)
                  for pols, pa in AMPLITUDES[kind]]
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
    for port, basis, outcome in measures:
        branch_prob, state = _detect(state, port, OUTCOMES[basis][outcome])
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

    branches = []
    for outcome, weights in OUTCOMES[basis].items():
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


def pattern_extract_logical(state: PhotonicState, port_to_qubit: dict[int, int]) -> StateVector:
    """``optics.extract_logical`` by walking each term's pattern: H -> 0, V -> 1.

    Every term must occupy exactly the listed ports with one photon each.
    Amplitudes whose squared norm is within ``NORM_TOL`` of 1 are read as
    they are; any others are renormalised.
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
    if abs(float(np.sum(np.abs(amps) ** 2)) - 1.0) > NORM_TOL:  # as StateVector tests it
        amps = amps / norm
    return StateVector(amps, tuple(port_to_qubit.values()))


# -- packed terms with float amplitudes ------------------------------------------------
#
# A term is one int: the i-th of the circuit's sorted ports holds its H count in
# bits 10i..10i+4 and its V count in the next five.  Each step sums with
# ``out.get(k, 0) + amp`` in term order and drops amplitudes at or under AMP_TOL
# after each element, as run_tuples does on PhotonicState, so the amplitudes and
# the term order are bit-identical to it.

_COUNT = 31  # one mode's count field
_PORT = 1023  # a port's H and V fields
_SINGLE = (1, 1 << 5)  # a port's fields holding exactly one photon, H or V
#: (a port's fields, HWP angle) -> each output fields value and coefficient
_MIX: dict[tuple[int, float], tuple[tuple[int, complex], ...]] = {}


def _join_terms(terms: dict, sources: list[Source], shift: dict[int, int]) -> dict:
    """Multiply the terms by more sources, on ports every term leaves empty."""
    for kind, ports in sources:
        pieces = [(sum(1 << (shift[p] + (5 if pol == "V" else 0)) for p, pol in zip(ports, pols)), pa)
                  for pols, pa in AMPLITUDES[kind]]
        new: dict = {}
        for key, amp in terms.items():
            for piece, pa in pieces:
                k = key | piece
                new[k] = new.get(k, 0) + amp * pa
        terms = new
    return _clean(terms)


def _pbs_terms(terms: dict, shift_a: int, shift_b: int) -> dict:
    """Polarizing beam splitter: H transmits, so the two ports' V fields swap."""
    va, vb = shift_a + 5, shift_b + 5
    out: dict = {}
    for key, amp in terms.items():
        x = (key >> va ^ key >> vb) & _COUNT
        k = key ^ (x << va | x << vb)
        out[k] = out.get(k, 0) + amp
    return _clean(out)


def _hwp_terms(terms: dict, shift: int, angle: float) -> dict:
    """Half-wave plate on the port with fields at bit ``shift``: 22.5 degrees maps H/V to +/-,
    0 is a Pauli Z."""
    out: dict = {}
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


def _detect_terms(terms: dict, port: int, shift: int, weights: dict[str, float]) -> tuple[dict, float]:
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


def run_packed(spec: dict) -> tuple[PhotonicState, float, list[dict]]:
    """``optics.run_circuit``'s schedule on packed-integer terms with float amplitudes."""
    elements, joins, retires, postselect, measures = _plan(spec)
    ports = sorted(p for joining in joins for _, source_ports in joining for p in source_ports)
    shift = {p: 10 * i for i, p in enumerate(ports)}
    terms: dict = {0: 1.0 + 0j}
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
    for port, basis, outcome in measures:
        terms, branch_prob = _detect_terms(terms, port, shift[port], OUTCOMES[basis][outcome])
        log.append({"port": port, "basis": basis, "outcome": outcome, "probability": branch_prob})
    state = PhotonicState({_pattern_of(k, ports): a for k, a in terms.items()},
                          len(ports) - len(measures),
                          frozenset(ports).difference(port for port, *_ in measures))
    return state, prob, log


# -- protocol circuits as descriptions ------------------------------------------------


def _idle_photons(circuit) -> list[int | None]:
    """Each pair's port that no element touches and no detection reads, or None."""
    busy = {port for port, _, _ in circuit.detections}
    for element in circuit.elements:
        busy.update(element["pbs"] if "pbs" in element else element["hwp"][:1])
    return [next((p for p in pair if p not in busy), None) for pair in circuit.pairs]


def protocol_description(circuit) -> dict:
    """A protocol builder's ``_Circuit`` as a README description, with ``protocols._optics``'s
    sources: ``bell_psi`` for a pair with an idle photon, ``gbell`` for the others; every
    pair's ports are postselected."""
    return {"sources": [{"gbell" if p is None else "bell_psi": list(pair)}
                        for pair, p in zip(circuit.pairs, _idle_photons(circuit))],
            "elements": circuit.elements,
            "postselect": [port for pair in circuit.pairs for port in pair],
            "measure": [{"port": p, "basis": b, "outcome": o} for p, b, o in circuit.detections]}


def described_optics(circuit) -> tuple[StateVector, float]:
    """``run_circuit`` on the ``protocol_description``, then ``protocols._optics``'s read-out:
    ``extract_logical``, a Hadamard on each idle photon's qubit and a checked ``StateVector``."""
    state, prob, _ = run_circuit(protocol_description(circuit))
    sv = extract_logical(state, circuit.qubits)
    axes = [sv.qubit_order.index(circuit.qubits[p]) for p in _idle_photons(circuit) if p is not None]
    amps = sv.amplitudes
    for axis in axes:
        split = amps.reshape(1 << axis, 2, -1)
        h, v = split[:, :1], split[:, 1:]
        amps = np.concatenate((h + v, h - v), 1)
    return StateVector(amps.reshape(-1) * 2 ** (-len(axes) / 2), sv.qubit_order), prob
