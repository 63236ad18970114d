"""The benchmark's gate, run once: every ``dual-engine``, ``word-sweep`` and ``montecarlo`` op
must hold on the default and the hold-out seed, so a change that breaks an optics-versus-graph
agreement, makes a word's crosscheck fast but wrong, or moves a Monte Carlo estimate off its
analytic value, fails here first."""

import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


@pytest.fixture
def workloads(monkeypatch):
    """perfbench/workloads.py, read from source; no bytecode cache is written beside it."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("seed", [20251017, 911])
def test_dual_engine_ops_agree(workloads, seed):
    workload = workloads.dual_engine(seed)
    results = {i: op.run() for i, op in enumerate(workload.ops)}
    assert len(results) == 34
    assert [workload.ops[i].label for i in sorted(workload.failed(results))] == []


@pytest.mark.parametrize("seed", [20251017, 911])
def test_word_sweep_ops_agree(workloads, seed):
    workload = workloads.word_sweep(seed)
    results = {i: op.run() for i, op in enumerate(workload.ops)}
    assert len(results) == 1183
    assert [workload.ops[i].label for i in sorted(workload.failed(results))] == []


@pytest.mark.parametrize("seed", [20251017, 911])
def test_montecarlo_ops_agree(workloads, seed):
    workload = workloads.montecarlo(seed)
    results = {i: op.run() for i, op in enumerate(workload.ops)}
    assert len(results) == 120
    assert [workload.ops[i].label for i in sorted(workload.failed(results))] == []
