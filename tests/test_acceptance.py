"""Acceptance gate: every shipped criterion at its stated tolerance.

Each test prints one PASS/FAIL line; run with ``pytest -s`` to see them.
The criteria bodies live in photonweave.verify so the CLI ``verify``
verb exercises exactly the same checks.
"""

from photonweave.verify import (
    check_appendix_a,
    check_appendix_b,
    check_cz_gate,
    check_dual_path,
    check_ghz_postselection,
    check_monte_carlo,
    check_path_weaving,
    check_properties,
    check_protocol_exponents,
)

RUNTIME_LIMITS = {
    "ghz-postselection": 5.0,
    "cz-gate": 1.0,
    "dual-path": 60.0,
    "appendix-b": 600.0,
}


def _report(result):
    status = "PASS" if result.passed else "FAIL"
    print(f"{status} {result.name}: {result.details} ({result.seconds:.2f}s)")
    assert result.passed, f"{result.name}: {result.details}"
    limit = RUNTIME_LIMITS.get(result.name)
    if limit is not None:
        assert result.seconds < limit, f"{result.name} took {result.seconds:.1f}s"


def test_criterion_1_ghz_postselection():
    _report(check_ghz_postselection())


def test_criterion_2_cz_gate():
    _report(check_cz_gate())


def test_criterion_3_path_weaving():
    _report(check_path_weaving())


def test_criterion_4_protocol_exponents():
    _report(check_protocol_exponents())


def test_criterion_5_dual_path_agreement():
    _report(check_dual_path())


def test_criterion_6_appendix_a_fusion():
    _report(check_appendix_a())


def test_criterion_7_appendix_b_sweep():
    _report(check_appendix_b(zigzag_sizes=(6, 8, 10)))


def test_criterion_8_monte_carlo():
    _report(check_monte_carlo(trials=100_000, seed=7))


def test_criterion_9_property_suites():
    _report(check_properties())
