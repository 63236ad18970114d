"""Acceptance gate: every shipped criterion at its stated tolerance.

Each test prints one PASS/FAIL line; run with ``pytest -s`` to see them.
The criteria run through photonweave.verify.run_suite, the same path the
CLI ``verify`` verb takes, so both exercise exactly the same checks.
"""

import re

import pytest

from photonweave.verify import SUITES, CriterionResult, run_suite

RUNTIME_LIMITS = {
    "ghz-postselection": 5.0,
    "cz-gate": 1.0,
    "dual-path": 60.0,
    "appendix-b": 600.0,
}


def _report(name, **kwargs):
    [result] = run_suite(name, **kwargs)
    status = "PASS" if result.passed else "FAIL"
    print(f"{status} {result.name}: {result.details} ({result.seconds:.2f}s)")
    assert result.passed, f"{result.name}: {result.details}"
    limit = RUNTIME_LIMITS.get(result.name)
    if limit is not None:
        assert result.seconds < limit, f"{result.name} took {result.seconds:.1f}s"


def test_criterion_1_ghz_postselection():
    _report("ghz-postselection")


def test_criterion_2_cz_gate():
    _report("cz-gate")


def test_criterion_3_path_weaving():
    _report("path-weaving")


def test_criterion_4_protocol_exponents():
    _report("protocol-exponents")


def test_criterion_5_dual_path_agreement():
    _report("dual-path")


def test_criterion_6_appendix_a_fusion():
    _report("appendix-a")


def test_criterion_7_appendix_b_sweep():
    _report("appendix-b", zigzag_sizes=(6, 8, 10))


def test_criterion_8_monte_carlo():
    _report("monte-carlo", trials=100_000, seed=7)


def test_criterion_9_property_suites():
    _report("properties")


def test_run_suite_rejects_an_unknown_name_and_lists_the_suites():
    with pytest.raises(ValueError) as excinfo:
        run_suite("ghz")
    message = str(excinfo.value)
    assert "unknown suite 'ghz'" in message
    assert all(repr(name) in message for name in [*SUITES, "all"])


def test_run_suite_all_reports_every_criterion_in_order():
    results = run_suite("all")
    assert all(isinstance(r, CriterionResult) for r in results)
    assert [r.name for r in results] == list(SUITES)
    assert all(r.seconds >= 0 for r in results)


def test_run_suite_all_rejects_keywords_and_names_them():
    # "all" runs every criterion with its defaults, so a keyword would be dropped unread
    with pytest.raises(ValueError, match=re.escape("reads no keyword, got ['seed', 'trials']")):
        run_suite("all", trials=10, seed=3)


@pytest.mark.parametrize("name, kwargs, message", [
    ("cz-gate", {"trials": 3}, "suite 'cz-gate' does not read ['trials']; it reads []"),
    ("monte-carlo", {"trials": 10, "n": 6}, "suite 'monte-carlo' does not read ['n']; "
                                            "it reads ['seed', 'trials']"),
])
def test_run_suite_rejects_a_keyword_the_criterion_does_not_read(name, kwargs, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        run_suite(name, **kwargs)
