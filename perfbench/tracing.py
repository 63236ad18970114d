"""Span recording around photonweave's public functions, from outside.

The traced run replaces each function listed in ``TRACED`` with a wrapper
in every ``photonweave`` module namespace that holds it (a module that
did ``from .graphs import locally_equivalent`` holds its own reference),
so calls between layers are recorded too.  Nothing in the package is
edited, and ``patched`` restores every reference on exit.

A span is (name, parent span, start, end, busy).  ``busy`` equals
end - start except for the ``lc_orbit`` generator, whose span adds up
only the time spent inside the generator between yields; the consumer's
work between yields stays with the consumer.  Self time is busy time
minus the busy time of child spans, and minus the time the recorder
spent updating counters while the span was open (that is the tracer's
cost, not the caller's).
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from pathlib import Path

import numpy as np

TRACED = {
    "optics": ("prepare", "apply_pbs", "apply_hwp", "postselect_coincidence",
               "measure_polarization", "extract_logical"),
    "states": ("graph_form", "state_locally_equivalent", "to_state_vector"),
    "graphs": ("locally_equivalent", "local_complement", "measure_pauli", "lc_orbit"),
    "minors": ("crosscheck", "simulate_word", "predict_representative",
               "honeycomb_multigraph", "apply_word", "tour_interlacement"),
    "protocols": ("ghz_optics", "path_optics", "cycle_optics", "caterpillar_optics",
                  "block_optics", "run_ghz", "run_path", "run_cycle", "run_caterpillar",
                  "run_request", "fuse_chain", "fuse_merge", "monte_carlo"),
}
SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns)
GENERATORS = {"graphs.lc_orbit"}
OPTICS_ELEMENTS = {"apply_pbs", "apply_hwp", "postselect_coincidence",
                   "measure_polarization", "extract_logical"}


class Recorder:
    """Spans in memory plus the exact counters the per-layer metrics need."""

    def __init__(self) -> None:
        self.name_id: list[int] = []
        self.parent: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.busy: list[float] = []
        #: counter upkeep done while the span was open, kept out of its self time
        self.counting: list[float] = []
        self.counting_s = 0.0
        self.stack: list[int] = []
        self.counters = {
            "optics.terms_in": 0,
            "optics.peak_terms": 0,
            "optics.postselect.terms_in": 0,
            "optics.postselect.terms_kept": 0,
            "states.graph_form.qubits_max": 0,
            "graphs.lc_orbit.yielded": 0,
            "protocols.fuse_chain.fusion_attempts": 0,
            "protocols.fuse_chain.fusions_succeeded": 0,
            "protocols.fuse_chain.blocks": 0,
        }

    def _open(self, name_id: int) -> int:
        idx = len(self.name_id)
        self.name_id.append(name_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        now = time.perf_counter()
        self.start.append(now)
        self.end.append(now)
        self.busy.append(0.0)
        self.counting.append(0.0)
        self.stack.append(idx)
        return idx

    def _close(self, idx: int, resumed: float) -> None:
        now = time.perf_counter()
        self.stack.pop()
        self.end[idx] = now
        self.busy[idx] += now - resumed

    def wrap(self, name: str, fn):
        name_id = SPAN_NAMES.index(name)
        count = _COUNTERS.get(name)
        if name in GENERATORS:
            return self._wrap_generator(name_id, fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx, self.start[idx])
            if count is not None:
                t0 = time.perf_counter()
                # every counted function takes its state (or blocks) first
                count(self.counters, args[0], result)
                spent = time.perf_counter() - t0
                self.counting_s += spent
                if self.stack:
                    self.counting[self.stack[-1]] += spent
            return result

        return traced

    def _wrap_generator(self, name_id: int, fn):
        counters = self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            idx = -1
            try:
                while True:
                    if idx < 0:
                        idx = self._open(name_id)
                    else:
                        self.stack.append(idx)
                    resumed = time.perf_counter()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self._close(idx, resumed)
                    counters["graphs.lc_orbit.yielded"] += 1
                    yield item
            finally:
                inner.close()

        return traced

    def self_times(self) -> dict[str, float]:
        """Self time per span name."""
        ids = np.asarray(self.name_id, dtype=np.int64)
        parent = np.asarray(self.parent, dtype=np.int64)
        busy = np.asarray(self.busy)
        child = np.bincount(parent[parent >= 0], weights=busy[parent >= 0],
                            minlength=len(busy))
        own = np.bincount(ids, weights=busy - child - np.asarray(self.counting),
                          minlength=len(SPAN_NAMES))
        return dict(zip(SPAN_NAMES, own.tolist()))

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            names=np.asarray(SPAN_NAMES),
            name_id=np.asarray(self.name_id, dtype=np.int16),
            parent=np.asarray(self.parent, dtype=np.int64),
            start=np.asarray(self.start),
            end=np.asarray(self.end),
            busy=np.asarray(self.busy),
        )


# -- counters -------------------------------------------------------------------


def _states_of(fn_name: str, result) -> list:
    if fn_name == "postselect_coincidence":
        return [result[0]]
    if fn_name == "measure_polarization":
        return [branch[2] for branch in result]
    if fn_name == "extract_logical":
        return []
    return [result]


def _optics_counter(fn_name: str):
    def count(c: dict, state, result) -> None:
        if fn_name in OPTICS_ELEMENTS:
            c["optics.terms_in"] += len(state.terms)
        for out in _states_of(fn_name, result):
            c["optics.peak_terms"] = max(c["optics.peak_terms"], len(out.terms))
        if fn_name == "postselect_coincidence":
            c["optics.postselect.terms_in"] += len(state.terms)
            c["optics.postselect.terms_kept"] += len(result[0].terms)

    return count


def _graph_form_counter(c: dict, sv, result) -> None:
    c["states.graph_form.qubits_max"] = max(c["states.graph_form.qubits_max"], sv.n)


def _fuse_chain_counter(c: dict, blocks, chain) -> None:
    # every failed joint fusion discards one block; a failed closure aborts
    n_blocks = len(blocks)
    failed = chain.blocks_consumed - n_blocks + (0 if chain.succeeded else 1)
    c["protocols.fuse_chain.fusion_attempts"] += chain.fusion_attempts
    c["protocols.fuse_chain.fusions_succeeded"] += chain.fusion_attempts - failed
    c["protocols.fuse_chain.blocks"] += chain.blocks_consumed


_COUNTERS = {f"optics.{fn}": _optics_counter(fn) for fn in TRACED["optics"]}
_COUNTERS["states.graph_form"] = _graph_form_counter
_COUNTERS["protocols.fuse_chain"] = _fuse_chain_counter


@contextlib.contextmanager
def patched(recorder: Recorder):
    """Route every photonweave reference to a traced function through the recorder."""
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "photonweave" or name.startswith("photonweave."))]
    undo = []
    try:
        for mod_name, fns in TRACED.items():
            home = sys.modules[f"photonweave.{mod_name}"]
            for fn_name in fns:
                original = getattr(home, fn_name, None)
                if original is None:  # gone from the package: reads as 0 calls
                    continue
                wrapper = recorder.wrap(f"{mod_name}.{fn_name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            undo.append((module, attr, original))
        yield recorder
    finally:
        for module, attr, original in reversed(undo):
            setattr(module, attr, original)
