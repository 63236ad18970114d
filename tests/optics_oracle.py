"""The slow optics path, kept as the test oracle for ``optics.run_circuit``.

``prepare`` builds the full product of the sources, ``measure_polarization``
returns every detection branch, and ``composed`` runs a circuit
description element by element on the whole state, postselecting and
measuring only at the end.
"""

import math

import numpy as np

from photonweave.optics import (
    AMP_TOL,
    Pattern,
    PhotonicState,
    _check_sources,
    _expand,
    _pattern,
    _pattern_ports,
    _source_from_json,
    apply_hwp,
    apply_pbs,
    postselect_coincidence,
)


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
