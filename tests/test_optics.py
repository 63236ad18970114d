import ast
import json
import math
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import photonweave
from photonweave import optics, protocols
from photonweave.graphs import path_graph, star_graph
from photonweave.optics import (
    PhotonicState,
    extract_logical,
    run_circuit,
    state_from_json,
    state_from_json_dict,
    state_to_json,
    state_to_json_dict,
)
from photonweave.protocols import ghz_weave
from photonweave.states import NORM_TOL, state_locally_equivalent
from optics_oracle import (
    FLOAT_ENGINE_TOL,
    apply_hwp,
    apply_pbs,
    composed,
    pattern_extract_logical,
    postselect_coincidence,
    prepare,
    protocol_description,
    run_packed,
    run_tuples,
)

S2 = 1 / math.sqrt(2)


def one(port, pol):
    return (((port, pol), 1),)


# -- sources ---------------------------------------------------------------------


def test_plus_source():
    s = prepare([{"plus": 0}])
    assert s.terms == pytest.approx({one(0, "H"): S2, one(0, "V"): S2})


def test_three_plus_photons():
    s = prepare([{"plus": 0}, {"plus": 1}, {"plus": 2}])
    assert len(s.terms) == 8
    assert all(abs(a - 2**-1.5) < 1e-12 for a in s.terms.values())


def test_gbell_expansion():
    s = prepare([{"gbell": [0, 1]}])
    assert len(s.terms) == 4
    expected = {
        (((0, "H"), 1), ((1, "H"), 1)): 0.5,
        (((0, "V"), 1), ((1, "H"), 1)): 0.5,
        (((0, "H"), 1), ((1, "V"), 1)): 0.5,
        (((0, "V"), 1), ((1, "V"), 1)): -0.5,
    }
    for pat, amp in expected.items():
        assert s.terms[tuple(sorted(pat))] == pytest.approx(amp)


def test_bell_psi_expansion():
    s = prepare([{"bell_psi": [0, 1]}])
    assert s.terms == pytest.approx({(((0, "H"), 1), ((1, "H"), 1)): S2,
                                     (((0, "V"), 1), ((1, "V"), 1)): S2})


def test_readme_source_kinds_match_sources():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    assert sorted(re.findall(r'^\* `\{"(\w+)":', readme, re.M)) == sorted(optics.SOURCES)


def test_port_collision_rejected():
    with pytest.raises(ValueError):
        prepare([{"plus": 0}, {"bell_psi": [0, 1]}])
    with pytest.raises(ValueError):
        prepare([{"gbell": [2, 2]}])


def test_capacity_limits():
    with pytest.raises(ValueError):
        prepare([{"plus": i} for i in range(17)])


# -- elements --------------------------------------------------------------------


def test_pbs_transmits_h_reflects_v():
    # single H photon stays put; single V photon crosses
    s = PhotonicState({(((0, "H"), 1), ((1, "H"), 1)): 1.0})
    out = apply_pbs(s, 0, 1)
    assert out.terms == s.terms
    s = PhotonicState({(((0, "V"), 1), ((1, "H"), 1)): 1.0})
    out = apply_pbs(s, 0, 1)
    assert tuple(sorted((((1, "V"), 1), ((1, "H"), 1)))) in out.terms


def test_pbs_unknown_port():
    v_only = PhotonicState({one(0, "V"): 1.0})
    with pytest.raises(ValueError):
        apply_pbs(v_only, 0, 1)


def test_pbs_is_involution():
    s = prepare([{"gbell": [0, 1]}, {"plus": 2}])
    twice = apply_pbs(apply_pbs(s, 1, 2), 1, 2)
    assert set(twice.terms) == set(s.terms)
    for pat, amp in s.terms.items():
        assert twice.terms[pat] == pytest.approx(amp)


def test_hwp_rotations():
    s = PhotonicState({one(0, "H"): 1.0})
    out = apply_hwp(s, 0, 22.5)
    assert out.terms[one(0, "H")] == pytest.approx(S2)
    assert out.terms[one(0, "V")] == pytest.approx(S2)
    s = PhotonicState({one(0, "V"): 1.0})
    assert apply_hwp(s, 0, 0).terms[one(0, "V")] == pytest.approx(-1.0)
    with pytest.raises(ValueError):
        apply_hwp(s, 0, 45.0)


def test_hwp_is_an_involution():
    # the pinned 22.5-degree convention is the Hadamard, so squaring it is
    # the identity on both basis photons (a physical waveplate is a mirror)
    for pol in ("H", "V"):
        s = PhotonicState({one(0, pol): 1.0})
        out = apply_hwp(apply_hwp(s, 0, 22.5), 0, 22.5)
        assert out.terms[one(0, pol)] == pytest.approx(1.0)


def test_hwp_bosonic_factors():
    two = PhotonicState({(((0, "H"), 2),): 1.0})
    out = apply_hwp(two, 0, 22.5)
    probs = {pat: abs(a) ** 2 for pat, a in out.terms.items()}
    assert probs[(((0, "H"), 2),)] == pytest.approx(0.25)
    assert probs[(((0, "H"), 1), ((0, "V"), 1))] == pytest.approx(0.5)
    assert probs[(((0, "V"), 2),)] == pytest.approx(0.25)
    assert out.norm_squared() == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.booleans(), st.integers(0, 3), st.integers(0, 3)),
                min_size=1, max_size=8))
def test_unitarity_and_photon_number(ops):
    s = prepare([{"gbell": [0, 1]}, {"plus": 2}, {"bell_psi": [3, 4]}])
    n0 = s.total_photons
    for is_pbs, a, b in ops:
        if is_pbs and a != b:
            s = apply_pbs(s, a, b)
        else:
            s = apply_hwp(s, a, 22.5)
        assert abs(s.norm_squared() - 1.0) < 1e-12
        assert s.total_photons == n0
        assert all(sum(c for _, c in pat) == n0 for pat in s.terms)


# -- postselection and measurement --------------------------------------------------


def test_trivial_postselect():
    s = prepare([{"plus": 0}])
    out, prob = postselect_coincidence(s, [0])
    assert prob == pytest.approx(1.0)
    assert set(out.terms) == set(s.terms)


def test_zero_probability_is_a_value():
    s = prepare([{"plus": 0}, {"plus": 1}])
    s = apply_pbs(s, 0, 1)
    # demanding two photons at port 0 and none at 1 == impossible coincidence set
    out, prob = postselect_coincidence(s, [0])
    assert prob == 0.0 and not out.terms


def detect(spec, port, basis):
    """Every branch of one detection after a circuit, as (outcome, probability, post-state)."""
    branches = []
    for outcome in ("H", "V") if basis == "HV" else ("+", "-"):
        measure = [{"port": port, "basis": basis, "outcome": outcome}]
        post, _, log = run_circuit({**spec, "measure": measure})
        branches.append((outcome, log[0]["probability"], post))
    return branches


def test_measure_plus_photon():
    branches = detect({"sources": [{"plus": 0}]}, 0, "HV")
    assert sorted((o, pytest.approx(p)) for o, p, _ in branches) == [
        ("H", pytest.approx(0.5)),
        ("V", pytest.approx(0.5)),
    ]


def test_measure_requires_definite_photon():
    # after the PBS, port 0 can hold 0 or 2 photons
    bunched = {"sources": [{"plus": 0}, {"plus": 1}], "elements": [{"pbs": [0, 1]}]}
    with pytest.raises(ValueError, match="exactly one photon"):
        detect(bunched, 0, "HV")


def test_ghz_pm_branches_are_bell_states():
    spec = {"sources": [{"plus": i} for i in range(3)], "elements": ghz_weave(range(3)),
            "postselect": [0, 1, 2]}
    branches = detect(spec, 2, "PM")
    for outcome, prob, post in branches:
        assert prob == pytest.approx(0.5)
        sv = extract_logical(post, {0: 0, 1: 1})
        target = np.zeros(4, dtype=complex)
        target[0] = S2
        target[3] = S2 if outcome == "+" else -S2
        assert abs(abs(np.vdot(sv.amplitudes, target)) - 1) < 1e-10


def test_extract_logical_plus():
    sv = extract_logical(prepare([{"plus": 0}]), {0: 1})
    assert np.allclose(sv.amplitudes, np.array([1, 1]) / np.sqrt(2))


def test_extract_logical_bell():
    s = prepare([{"plus": 0}, {"plus": 1}])
    s = apply_pbs(s, 0, 1)
    s, prob = postselect_coincidence(s, [0, 1])
    assert prob == pytest.approx(0.5)
    sv = extract_logical(s, {0: 0, 1: 1})
    assert np.allclose(sv.amplitudes, np.array([1, 0, 0, 1]) / np.sqrt(2))


@pytest.mark.parametrize("patterns,listed,message", [
    ([(((0, "H"), 2),)], {0: 0, 1: 1}, "port 0 does not hold"),
    ([(((0, "H"), 1), ((0, "V"), 1))], {0: 0, 1: 1}, "port 0 does not hold"),
    ([(((0, "H"), 1), ((2, "V"), 1))], {1: 0, 0: 1}, "port 1 does not hold"),
    ([(((0, "H"), 1), ((1, "V"), 1)), (((1, "H"), 1), ((2, "V"), 1))], {0: 0, 1: 1},
     "port 0 does not hold"),
    ([(((0, "H"), 1), ((1, "V"), 1), ((3, "H"), 1)), (((0, "V"), 1), ((1, "V"), 1), ((2, "H"), 1))],
     {0: 0, 1: 1}, r"unlisted ports \[3\]"),
])
def test_extract_logical_names_what_does_not_fit(patterns, listed, message):
    # the first listed port without one photon in some term, else the first term's unlisted ports
    state = PhotonicState({pat: len(patterns) ** -0.5 for pat in patterns})
    with pytest.raises(ValueError, match=message):
        extract_logical(state, listed)


def test_extract_logical_rejects_zero_probability_state():
    # port 5 never holds a photon, so postselection keeps no term
    spec = {"sources": [{"plus": 0}, {"plus": 1}], "elements": [{"pbs": [0, 1]}], "postselect": [0, 1, 5]}
    state, prob, _ = run_circuit(spec)
    assert prob == 0.0 and not state.terms
    with pytest.raises(ValueError, match="zero-probability"):
        extract_logical(state, {0: 0, 1: 1})


@pytest.mark.parametrize("excess", [1e-12, 3e-10, 1e-9, 5e-9])
def test_extract_logical_reads_states_near_unit_norm(excess):
    # a squared norm within StateVector's NORM_TOL of 1 is read as it is, bit for bit;
    # one farther off is renormalised, never rejected
    amp = math.sqrt((1 + excess) / 2)
    state = PhotonicState({one(0, "H"): amp, one(0, "V"): -amp})
    sv = extract_logical(state, {0: 7})
    assert sv.qubit_order == (7,)
    if excess <= NORM_TOL:
        assert sv.amplitudes.tolist() == [amp, -amp]
    else:
        assert abs(float(np.sum(np.abs(sv.amplitudes) ** 2)) - 1) <= 1e-15
        assert sv.amplitudes[0] == -sv.amplitudes[1] > 0


# -- reference circuits ----------------------------------------------------------------


def test_cz_circuit_quarter_probability():
    s = prepare([{"plus": 0}, {"plus": 1}, {"plus": 2}])
    for t in (1, 2):
        s = apply_pbs(s, 0, t)
        s = apply_hwp(s, 0, 22.5)
    s, prob = postselect_coincidence(s, [0, 1, 2])
    assert prob == pytest.approx(0.25, abs=1e-12)
    sv = extract_logical(s, {1: 1, 2: 2, 0: 3})
    assert state_locally_equivalent(sv, path_graph(3))


def test_ghz_chain_probabilities():
    for n in range(2, 9):
        s = prepare([{"plus": i} for i in range(n)])
        for i in range(n - 1):
            s = apply_pbs(s, i, i + 1)
        s, prob = postselect_coincidence(s, list(range(n)))
        assert prob == pytest.approx(0.5 ** (n - 1), abs=1e-12)
    sv = extract_logical(s, {i: i for i in range(8)})
    assert state_locally_equivalent(sv, star_graph(0, range(1, 8)))


def test_stagewise_halving():
    # the chain reads as sequential type-I fusions: each stage halves the norm
    n = 4
    s = prepare([{"plus": i} for i in range(n + 1)])
    last = 1.0
    for i in range(1, n + 1):
        s = apply_pbs(s, 0, i)
        s = apply_hwp(s, 0, 22.5)
        kept, prob = postselect_coincidence(s, list(range(n + 1)))
        # conditioned on previous stages, each stage contributes exactly 1/2
        assert prob / last == pytest.approx(0.5, abs=1e-12)
        last = prob


# -- serialization -----------------------------------------------------------------------


def test_state_json_round_trip():
    s = prepare([{"gbell": [0, 1]}])
    back = state_from_json(state_to_json(s))
    assert set(back.terms) == set(s.terms)
    for pat, amp in s.terms.items():
        assert back.terms[pat] == pytest.approx(amp)


@st.composite
def json_states(draw):
    """A state dump of up to six terms, each of the same up to MAX_PHOTONS photons on
    sparse ports, negative ones too, and a set of extra ports to hold empty."""
    pool = draw(st.lists(st.integers(-2**40, 2**40), min_size=1, max_size=6, unique=True))
    total = draw(st.integers(0, optics.MAX_PHOTONS))
    modes = st.tuples(st.sampled_from(pool), st.sampled_from("HV"))
    amplitude = st.complex_numbers(max_magnitude=2, allow_nan=False, allow_infinity=False)
    terms = {}
    for photons, amp in draw(st.lists(st.tuples(st.lists(modes, min_size=total, max_size=total),
                                                amplitude), max_size=6)):
        counts = {}
        for mode in photons:
            counts[mode] = counts.get(mode, 0) + 1
        terms.setdefault(tuple(sorted(counts.items())), amp)
    payload = {"total_photons": total, "terms": [
        {"occupations": [[port, pol, count] for (port, pol), count in pat],
         "amplitude": [amp.real, amp.imag]} for pat, amp in terms.items()]}
    return payload, frozenset(draw(st.lists(st.integers(-2**40, 2**40), max_size=4)))


@settings(max_examples=300, deadline=None)
@given(json_states())
def test_pattern_states_hold_packed_keys(case):
    # a state built from patterns holds run_circuit's packed keys over its sorted ports,
    # empty ones included, and they decode to its terms, in their order
    payload, extra = case
    dumped = state_from_json_dict(payload)
    for state in (dumped, PhotonicState(dumped.terms, dumped.total_photons, dumped.ports | extra)):
        occupied = {port for pat in state.terms for (port, _), _ in pat}
        ports = sorted(state.ports | occupied)
        assert state._shift == {port: 10 * i for i, port in enumerate(ports)}
        assert [(optics._pattern_of(key, state._shift), _bits(a)) for key, a in state._keys.items()] \
            == [(pat, _bits(a)) for pat, a in state.terms.items()]
        total = float(sum(abs(a) ** 2 for a in state.terms.values()))
        assert _bits(state.norm_squared()) == _bits(total)


PATTERN_MESSAGE = "a pattern lists each mode once, in sorted order, with no zero count"


def test_two_spellings_of_one_pattern_are_rejected():
    # both spellings packed to one key: 2 terms, but norm_squared() read 0.64
    with pytest.raises(ValueError, match=PATTERN_MESSAGE):
        PhotonicState({(((0, "H"), 1), ((1, "H"), 1)): 0.6, (((1, "H"), 1), ((0, "H"), 1)): 0.8})


@st.composite
def miswritten_patterns(draw):
    """A canonical pattern and a spelling of it that is not canonical: its modes out of
    order, a mode listed twice, or an extra mode with a zero count."""
    how = draw(st.sampled_from(["permuted", "repeated", "zero"]))
    modes = st.tuples(st.integers(-2**40, 2**40), st.sampled_from("HV"))
    counts = draw(st.dictionaries(modes, st.integers(1, 3), min_size=1 + (how == "permuted"),
                                  max_size=5))
    pattern = tuple(sorted(counts.items()))
    if how == "permuted":
        spelled = draw(st.permutations(pattern).filter(lambda p: tuple(p) != pattern))
    elif how == "repeated":
        mode, _ = draw(st.sampled_from(pattern))
        spelled = sorted([*pattern, (mode, draw(st.integers(1, 3)))])
    else:
        spelled = sorted([*pattern, (draw(modes.filter(lambda m: m not in counts)), 0)])
    return pattern, tuple(spelled)


@settings(max_examples=200, deadline=None)
@given(miswritten_patterns())
def test_patterns_must_be_canonical(case):
    pattern, spelled = case
    state = PhotonicState({pattern: 0.6})
    assert state.terms == {pattern: 0.6}
    assert list(state._keys.values()) == [0.6]
    with pytest.raises(ValueError, match=PATTERN_MESSAGE):
        PhotonicState({spelled: 0.6})
    with pytest.raises(ValueError, match=PATTERN_MESSAGE):
        PhotonicState({pattern: 0.6, spelled: 0.8})


def test_run_circuit_json():
    spec = {
        "sources": [{"plus": [0]}, {"plus": [1]}, {"plus": [2]}],
        "elements": [
            {"pbs": [0, 1]},
            {"hwp": [0, 22.5]},
            {"pbs": [0, 2]},
            {"hwp": [0, 22.5]},
        ],
        "postselect": [0, 1, 2],
        "measure": [{"port": 0, "basis": "HV"}],
    }
    state, prob, log = run_circuit(spec)
    assert prob == pytest.approx(0.25, abs=1e-12)
    assert log[0]["outcome"] == "H"
    assert json.dumps(state_to_json_dict(state))  # JSON-serializable dump


def test_ghz3_state_dump_two_terms():
    s = prepare([{"plus": i} for i in range(3)])
    for i in range(2):
        s = apply_pbs(s, i, i + 1)
    s, _ = postselect_coincidence(s, [0, 1, 2])
    payload = json.loads(state_to_json(s))
    assert len(payload["terms"]) == 2
    for term in payload["terms"]:
        re_part, im_part = term["amplitude"]
        assert abs(abs(re_part) - S2) < 1e-10 and abs(im_part) < 1e-12


def test_deterministic_branch_has_zero_probability_twin():
    # the 22.5-degree plate turns the + photon into H
    branches = detect({"sources": [{"plus": 0}], "elements": [{"hwp": [0, 22.5]}]}, 0, "HV")
    probs = {o: p for o, p, _ in branches}
    assert probs["H"] == pytest.approx(1.0) and probs["V"] == pytest.approx(0.0)


def test_run_circuit_outcome_selection():
    spec = {
        "sources": [{"gbell": [0, 1]}],
        "elements": [],
        "postselect": [0, 1],
        "measure": [{"port": 0, "basis": "PM", "outcome": "-"}],
    }
    _, _, log = run_circuit(spec)
    assert log[0]["outcome"] == "-"
    assert log[0]["probability"] == pytest.approx(0.5)


@pytest.mark.parametrize("basis,outcome", [("PM", "H"), ("PM", "x"), ("HV", "+"), ("HV", "")])
def test_run_circuit_rejects_outcome_outside_basis(basis, outcome):
    spec = {
        "sources": [{"gbell": [0, 1]}],
        "postselect": [0, 1],
        "measure": [{"port": 0, "basis": basis, "outcome": outcome}],
    }
    with pytest.raises(ValueError, match="not an outcome"):
        run_circuit(spec)


# -- run_circuit against the direct composition ------------------------------------------

def _run_or_error(run, spec):
    try:
        return run(spec), None
    except Exception as exc:  # compared by type and message below
        return None, (type(exc), str(exc))


def assert_matches_composition(spec):
    fast, fast_error = _run_or_error(run_circuit, spec)
    slow, slow_error = _run_or_error(composed, spec)
    assert fast_error == slow_error
    if slow_error:
        return
    (state, prob, log), (ref_state, ref_prob, ref_log) = fast, slow
    assert set(state.terms) == set(ref_state.terms)
    for pat, amp in ref_state.terms.items():
        assert abs(state.terms[pat] - amp) <= 1e-12
    assert state.total_photons == ref_state.total_photons
    assert abs(prob - ref_prob) <= 1e-12
    assert len(log) == len(ref_log)
    for entry, ref in zip(log, ref_log):
        assert {k: v for k, v in entry.items() if k != "probability"} == \
            {k: v for k, v in ref.items() if k != "probability"}
        assert abs(entry["probability"] - ref["probability"]) <= 1e-12


@st.composite
def circuits(draw):
    """1-3 sources of any kind, 0-6 PBS/HWP elements on their ports, mostly every port
    postselected (else some ports, maybe one no source has, or no postselect key) and up
    to two detections, each in either basis with any outcome."""
    free = list(draw(st.permutations(range(6))))
    sources, used = [], []
    for kind in draw(st.lists(st.sampled_from(sorted(optics.SOURCES)), min_size=1, max_size=3)):
        if kind == "plus":
            used.append(free.pop())
            sources.append({kind: used[-1]})
        else:
            used += [free.pop(), free.pop()]
            sources.append({kind: used[-2:]})
    hwp = st.tuples(st.sampled_from(used), st.sampled_from([0, 22.5]))
    options = [hwp.map(lambda pa: {"hwp": list(pa)})]
    if len(used) > 1:
        pairs = [[a, b] for a in used for b in used if a != b]
        options.append(st.sampled_from(pairs).map(lambda ab: {"pbs": ab}))
    elements = draw(st.lists(st.one_of(options), max_size=6))
    spec = {"sources": sources, "elements": elements}
    listed = draw(st.sampled_from(["every", "every", "some", "none"]))
    if listed != "none":
        spec["postselect"] = sorted(used) if listed == "every" else \
            draw(st.lists(st.sampled_from([*used, 6]), unique=True))
    measured = draw(st.lists(st.sampled_from(used), max_size=2, unique=True))
    if measured:
        outcomes = st.sampled_from([("HV", "H"), ("HV", "V"), ("PM", "+"), ("PM", "-")])
        spec["measure"] = [{"port": p, "basis": basis, "outcome": outcome}
                           for p, (basis, outcome) in zip(measured, draw(
                               st.lists(outcomes, min_size=len(measured), max_size=len(measured))))]
    return spec


@settings(max_examples=300, deadline=None)
@given(circuits())
def test_run_circuit_matches_composition(spec):
    assert_matches_composition(spec)


def _bits(x: complex | float) -> tuple[str, str]:
    """A number's exact bits (the sign of a zero included)."""
    return complex(x).real.hex(), complex(x).imag.hex()


def assert_bit_identical(spec):
    """The float engine on packed terms gives exactly the pattern-keyed engine's output."""
    (state, prob, log), (ref, ref_prob, ref_log) = run_packed(spec), run_tuples(spec)
    assert [(pat, _bits(a)) for pat, a in state.terms.items()] == \
        [(pat, _bits(a)) for pat, a in ref.terms.items()]
    assert all(type(a) is complex for a in state.terms.values())
    assert _bits(prob) == _bits(ref_prob)
    assert [{**e, "probability": _bits(e["probability"])} for e in log] == \
        [{**e, "probability": _bits(e["probability"])} for e in ref_log]
    assert (state.total_photons, state.ports) == (ref.total_photons, ref.ports)


@settings(max_examples=400, deadline=None)
@given(circuits())
def test_packed_terms_are_bit_identical(spec):
    try:
        run_tuples(spec)
    except ValueError as exc:  # a detection on a port without exactly one photon
        with pytest.raises(ValueError, match=re.escape(str(exc))):
            run_packed(spec)
        return
    assert_bit_identical(spec)


@settings(max_examples=300, deadline=None)
@given(circuits(), st.data())
def test_extract_logical_matches_pattern_oracle(spec, data):
    # the key read-out gives the pattern walk's vector bit for bit, or its error, on a state
    # built from keys and on the same state built from patterns; the port maps list the
    # state's ports, maybe one short (an unlisted occupied port) or one over (a port the
    # state lacks), and circuits without coincidence postselection leave bunched ports
    try:
        state = run_circuit(spec)[0]
    except ValueError:  # a detection on a port without exactly one photon
        return
    listed = data.draw(st.permutations(sorted(state.ports)))
    change = data.draw(st.sampled_from(["none", "none", "drop", "add"]))
    if change == "drop":
        listed = listed[1:]
    elif change == "add":
        listed.insert(data.draw(st.integers(0, len(listed))), data.draw(st.sampled_from([6, 7])))
    port_to_qubit = dict(zip(listed, data.draw(st.permutations(range(10, 10 + len(listed))))))
    ref, ref_error = _run_or_error(lambda m: pattern_extract_logical(state, m), port_to_qubit)
    for form in (state, PhotonicState(state.terms, state.total_photons, state.ports)):
        sv, error = _run_or_error(lambda m: extract_logical(form, m), port_to_qubit)
        assert error == ref_error
        if ref_error is None:
            assert [_bits(a) for a in sv.amplitudes] == [_bits(a) for a in ref.amplitudes]
            assert sv.qubit_order == ref.qubit_order


def test_dual_path_circuits_are_bit_identical(monkeypatch):
    # every circuit the dual-path criterion runs, over each protocol's full range, as the
    # description of the sources protocols._optics runs it with
    from photonweave import verify

    circuits = []
    real = protocols._optics

    def record(circuit):
        circuits.append(circuit)
        return real(circuit)

    monkeypatch.setattr(protocols, "_optics", record)
    for _ in verify._dual_path_cases():
        pass
    monkeypatch.undo()
    assert len(circuits) == 46
    for circuit in circuits:
        assert_bit_identical(protocol_description(circuit))


def assert_matches_float_engine(spec):
    """run_circuit gives the float engine's terms in its order, its errors, and its numbers
    within FLOAT_ENGINE_TOL."""
    exact, exact_error = _run_or_error(run_circuit, spec)
    ref, ref_error = _run_or_error(run_packed, spec)
    assert exact_error == ref_error
    if ref_error:
        return
    (state, prob, log), (ref_state, ref_prob, ref_log) = exact, ref
    assert list(state.terms) == list(ref_state.terms)
    assert all(type(a) is complex for a in state.terms.values())
    for pat, amp in ref_state.terms.items():
        assert abs(state.terms[pat] - amp) <= FLOAT_ENGINE_TOL
    assert (state.total_photons, state.ports) == (ref_state.total_photons, ref_state.ports)
    assert abs(prob - ref_prob) <= FLOAT_ENGINE_TOL
    assert [{**e, "probability": None} for e in log] == [{**e, "probability": None} for e in ref_log]
    for entry, ref_entry in zip(log, ref_log):
        assert abs(entry["probability"] - ref_entry["probability"]) <= FLOAT_ENGINE_TOL


@settings(max_examples=400, deadline=None)
@given(circuits())
def test_exact_engine_matches_float_engine(spec):
    assert_matches_float_engine(spec)


def test_sqrt2_parts_match_float_engine(monkeypatch):
    # the second plate sees ports holding 0, 1 and 2 photons, so terms of both parities
    # meet on one scale and some coefficients get a sqrt(2) part
    spec = {"sources": [{"plus": 0}, {"plus": 1}],
            "elements": [{"pbs": [0, 1]}, {"hwp": [0, 22.5]}, {"pbs": [0, 1]}, {"hwp": [0, 22.5]},
                         {"hwp": [1, 22.5]}]}
    keys = []
    real = optics._hwp_int

    def spy(terms, shift, angle):
        out, dh = real(terms, shift, angle)
        keys.extend(out)
        return out, dh

    monkeypatch.setattr(optics, "_hwp_int", spy)
    state, prob, _ = run_circuit(spec)
    monkeypatch.undo()
    assert any(k >= optics._ROOT2 for k in keys) and any(k < optics._ROOT2 for k in keys)
    assert max(sum(c for _, c in pat) for pat in state.terms) == 2
    assert abs(state.norm_squared() - 1) <= FLOAT_ENGINE_TOL and prob == 1.0
    assert_matches_float_engine(spec)
    assert_matches_float_engine({**spec, "measure": [{"port": 1, "basis": "PM", "outcome": "-"}]})


def test_dual_path_probabilities_are_exact():
    # every dual-path circuit returns its dyadic probability as the float equal to it
    from photonweave import verify

    cases = list(verify._dual_path_cases())
    assert len(cases) == 46
    for label, (_, prob), _, exact in cases:
        assert exact.numerator == 1 and exact.denominator & exact.denominator - 1 == 0, label
        assert prob == float(Fraction(1, exact.denominator)), label


def test_zero_probability_circuit():
    # port 5 has no source, so no term can hold one photon on it
    spec = {"sources": [{"plus": 0}, {"plus": 1}], "elements": [{"pbs": [0, 1]}],
            "postselect": [0, 1, 5], "measure": [{"port": 0, "basis": "PM"}]}
    state, prob, log = run_circuit(spec)
    assert prob == 0.0 and not state.terms
    assert log == [{"port": 0, "basis": "PM", "outcome": "+", "probability": 0.0}]
    assert_matches_composition(spec)


def test_retirement_can_empty_the_state(monkeypatch):
    # port 2 turns V and port 1 turns H, so the PBS sends both photons to port 1;
    # port 1 retires after it with two photons in every term
    spec = {"sources": [{"plus": 1}, {"plus": 2}],
            "elements": [{"hwp": [2, 0]}, {"hwp": [2, 22.5]}, {"hwp": [1, 22.5]},
                         {"pbs": [2, 1]}, {"hwp": [2, 22.5]}],
            "postselect": [1, 2], "measure": [{"port": 2, "basis": "HV"}]}
    seen = []
    real = optics._hwp_int

    def spy(terms, shift, angle):
        seen.append(len(terms))
        return real(terms, shift, angle)

    monkeypatch.setattr(optics, "_hwp_int", spy)
    state, prob, log = run_circuit(spec)
    assert len(seen) == 4 and seen[-1] == 0  # the last element runs on an empty term map
    assert prob == 0.0 and not state.terms and log[0]["probability"] == 0.0
    monkeypatch.undo()
    assert_matches_composition(spec)


def test_interference_emptied_port_is_still_a_port():
    # both photons leave port 2; a later element on it acts on vacuum
    s = prepare([{"plus": 1}, {"plus": 2}])
    for port, angle in ((2, 0), (2, 22.5), (1, 22.5)):
        s = apply_hwp(s, port, angle)
    s = apply_pbs(s, 2, 1)
    assert all(dict(pat).get((2, "H"), 0) + dict(pat).get((2, "V"), 0) == 0 for pat in s.terms)
    assert s.ports == {1, 2}
    assert apply_hwp(s, 2, 22.5).terms == s.terms


def _pbs_circuit(**keys):
    """Two plus photons through a PBS, with these keys added or replaced."""
    return {"sources": [{"plus": 0}, {"plus": 1}], "elements": [{"pbs": [0, 1]}], **keys}


@pytest.mark.parametrize("spec,message", [
    ({"sources": [{"plus": 0}, {"bell_psi": [0, 1]}], "elements": [{"pbs": [0, 1]}]},
     "port 0 used by two sources"),
    ({"sources": [{"gbell": [2, 2]}]}, "source ports must be distinct"),
    ({"sources": [{"plus": 0}, {"plus": 1}], "elements": [{"pbs": [0, 1]}, {"mirror": [0]}]},
     "unknown element"),
    ({"sources": [{"plus": 0}, {"plus": 1}], "elements": [{"pbs": [0, 1]}, {"hwp": [7, 0]}]},
     "unknown port 7"),
    ({"sources": [{"plus": 0}, {"plus": 1}], "elements": [{"pbs": [0, 1]}, {"hwp": [1, 45]}]},
     "unsupported HWP angle"),
    (_pbs_circuit(postselct=[0, 1]), "does not read 'postselct'"),
    (_pbs_circuit(sources=[{"plus": [0, 1]}]), "a source is one of"),
    (_pbs_circuit(sources=[{"plus": 0, "gbell": [1, 2]}]), "a source is one of"),
    (_pbs_circuit(sources=[{"plus": "0"}, {"plus": 1}]), "a source is one of"),
    (_pbs_circuit(sources=[{"gbell": [0, 1, 2]}]), "a source is one of"),
    (_pbs_circuit(elements=[{"pbs": [0, 1], "hwp": [0, 0]}]), "unknown element"),
    (_pbs_circuit(elements=[{"pbs": [0, 1]}, {"hwp": [1]}]), "unknown element"),
    (_pbs_circuit(postselect=[0, 1, 0]), "none more than once"),
    (_pbs_circuit(measure=[{"port": 0}]), "a measure entry is"),
    (_pbs_circuit(measure=[{"port": 0, "basis": "XY"}]), "a measure entry is"),
    (_pbs_circuit(measure=[{"port": 0, "basis": "HV", "outcome": "+"}]), "not an outcome"),
    (_pbs_circuit(measure=[{"port": 9, "basis": "HV"}]), "unknown port 9"),
    (_pbs_circuit(postselect=[0, 1, 5], measure=[{"port": 0, "basis": "PM"}] * 2),
     "measured more than once"),
    (_pbs_circuit(postselect=5), "postselect is a list"),
    (_pbs_circuit(elements=[{"pbs": [[0], 1]}]), "unknown element"),
    (_pbs_circuit(measure=[{"port": [0], "basis": "HV"}]), "a measure entry is"),
    (_pbs_circuit(elements=[{"pbs": [0, 1]}, {"hwp": [0, False]}]), "unsupported HWP angle False;"),
    (_pbs_circuit(elements=[{"pbs": [0, 1]}, {"hwp": [0, "22.5"]}]),
     re.escape("unsupported HWP angle '22.5';")),
])
def test_bad_circuit_raises_before_any_term(monkeypatch, spec, message):
    def no_terms(*args):
        raise AssertionError("a term was built")

    # every term of run_circuit is built by a source joining the state
    monkeypatch.setattr(optics, "_join_int", no_terms)
    with pytest.raises(ValueError, match=message):
        run_circuit(spec)


OPTICS_PRIMITIVES = {"apply_pbs", "apply_hwp", "postselect_coincidence", "prepare",
                     "measure_polarization"}
#: the pattern-keyed engine and the float packed engine, which live in tests/optics_oracle.py
#: as the references
TUPLE_ENGINE = OPTICS_PRIMITIVES | {"_detect", "_expand", "_join", "_pattern_ports", "_join_terms",
                                    "_pbs_terms", "_hwp_terms", "_detect_terms", "run_packed",
                                    "_mode_mix_coeffs", "_hwp_matrix", "pattern_extract_logical"}


def _calls(node) -> set[str]:
    """The names of the functions called under an AST node, as attribute or bare name."""
    return {call.func.attr if isinstance(call.func, ast.Attribute) else getattr(call.func, "id", None)
            for call in ast.walk(node) if isinstance(call, ast.Call)}


def test_run_circuit_is_the_only_optics_path():
    # every package module outside optics builds its states on run_circuit's engine
    for path in sorted(Path(photonweave.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        defined = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
        assert not defined & TUPLE_ENGINE, path.name
        if path.name == "optics.py":
            continue
        assert not _calls(tree) & OPTICS_PRIMITIVES, path.name


def test_only_protocols_run_the_engine_unchecked():
    # _run and _schedule skip the description checks: outside optics only protocols._optics
    # calls them, and verify's optics criteria still go through run_circuit
    package = Path(photonweave.__file__).parent
    for path in sorted(package.glob("*.py")):
        if path.name not in ("optics.py", "protocols.py"):
            assert not _calls(ast.parse(path.read_text())) & {"_run", "_schedule"}, path.name
    tree = ast.parse((package / "verify.py").read_text())
    runs = {node.name for node in tree.body
            if isinstance(node, ast.FunctionDef) and "run_circuit" in _calls(node)}
    assert runs == {"check_ghz_postselection", "check_cz_gate", "check_path_weaving",
                    "check_properties"}
