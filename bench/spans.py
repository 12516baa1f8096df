"""In-memory span tracer that wraps cfolab's layer functions from outside.

Each traced function is replaced, for the duration of one operation, by a
wrapper bound under the same name in the module that calls it (for example
``estimator.dft`` for the DFT calls made by the estimator).  The package
itself is not modified.  Spans are kept in flat arrays and written out once,
after the measured loop, so tracing adds no I/O to the timed region.
"""

from __future__ import annotations

import contextlib
from array import array
from pathlib import Path
from time import perf_counter

import numpy as np

# Span name -> (module, attribute) bindings that route calls through the span.
# Every binding must exist: a span that silently lost its binding would read
# as a layer that got free.  A change that removes or renames one of these
# functions updates this table.
LAYERS: dict[str, tuple[tuple[str, str], ...]] = {
    "cli.main": (("cli", "main"),),
    "cli.build_parser": (("cli", "build_parser"),),
    "cli.read_iq": (("cli", "read_iq"),),
    "simlab.run_sweep": (("cli", "run_sweep"),),
    "simlab.run_trial": (("simlab", "run_trial"),),
    "simlab.trial_rng": (("simlab", "trial_rng"),),
    "channel.transmit": (("simlab", "transmit"),),
    "channel.draw_channel": (("channel", "draw_channel"),),
    "estimator.estimate_cfo": (("simlab", "estimate_cfo"), ("cli", "estimate_cfo")),
    "estimator.estimate_ffo": (("estimator", "estimate_ffo"),),
    "estimator.compensate": (("estimator", "compensate"),),
    "estimator.freq_correlate": (("estimator", "freq_correlate"),),
    "estimator.resolve_ifo": (("estimator", "resolve_ifo"),),
    "sca.sca_estimate": (("simlab", "sca_estimate"),),
    "sca.sca_build_preamble": (("simlab", "sca_build_preamble"),),
    "signal.dft": (("estimator", "dft"), ("sca", "dft")),
    "signal.idft": (("sca", "idft"),),
}

# Spans whose return value carries a ``failed`` flag worth counting.
_RETURNS_FAILED = {"estimator.estimate_cfo"}


class MissingLayer(LookupError):
    """A binding in LAYERS does not exist in the package."""


class Tracer:
    """Records one span per wrapped call: name, parent, operation, start, end.

    The self time of a span is its duration minus the time covered by its
    direct child spans.
    """

    def __init__(self, modules: dict[str, object]):
        self.names = list(LAYERS)
        self._ids = {name: i for i, name in enumerate(self.names)}
        self.name_id = array("H")
        self.parent = array("l")
        self.op = array("l")
        self.start = array("d")
        self.end = array("d")
        self.child = array("d")
        self.raised = [0] * len(self.names)
        self.failed = [0] * len(self.names)
        self._stack: list[int] = []
        self._op_index = -1
        self._bindings = []
        missing = []
        for name, targets in LAYERS.items():
            for mod_name, attr in targets:
                module = modules[mod_name]
                if not hasattr(module, attr):
                    missing.append(f"{mod_name}.{attr}")
                    continue
                original = getattr(module, attr)
                self._bindings.append((module, attr, original, self._wrap(name, original)))
        if missing:
            raise MissingLayer(f"traced names missing from cfolab: {', '.join(missing)}")

    def _wrap(self, name: str, fn):
        nid = self._ids[name]
        check_failed = name in _RETURNS_FAILED
        stack = self._stack

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(self.name_id)
            self.name_id.append(nid)
            self.parent.append(parent)
            self.op.append(self._op_index)
            self.end.append(0.0)
            self.child.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            self.start.append(t0)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                self.raised[nid] += 1
                raise
            finally:
                t1 = perf_counter()
                self.end[idx] = t1
                stack.pop()
                if parent >= 0:
                    self.child[parent] += t1 - t0
            if check_failed and getattr(out, "failed", False):
                self.failed[nid] += 1
            return out

        return traced

    @contextlib.contextmanager
    def operation(self, op_index: int):
        """Route calls through the spans for one operation, then restore the originals."""
        self._op_index = op_index
        for module, attr, _, traced in self._bindings:
            setattr(module, attr, traced)
        try:
            yield
        finally:
            for module, attr, original, _ in self._bindings:
                setattr(module, attr, original)
            self._stack.clear()

    def layer_stats(self, traced_ops: int, op_scale: np.ndarray) -> dict[str, dict[str, float]]:
        """Per span name: calls per operation, p50/p99 of total and self time (µs), failures.

        Times are multiplied by ``op_scale[op]``, the speed correction of the
        operation the span belongs to.
        """
        name_id = np.frombuffer(self.name_id, dtype=np.uint16)
        scale = np.asarray(op_scale)[np.frombuffer(self.op, dtype=np.int64)]
        total = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        self_time = (total - np.frombuffer(self.child, dtype=np.float64)) * scale
        total = total * scale
        stats = {}
        for nid, name in enumerate(self.names):
            mask = name_id == nid
            calls = int(mask.sum())
            entry = {
                "calls": calls,
                "calls_per_op": calls / traced_ops if traced_ops else 0.0,
                "raised": self.raised[nid],
                "failed": self.failed[nid] + self.raised[nid],
            }
            for label, values in (("us", total[mask]), ("self_us", self_time[mask])):
                if calls:
                    p50, p99 = np.percentile(values * 1e6, [50, 99])
                else:
                    p50 = p99 = 0.0
                entry[f"{label}.p50"] = float(p50)
                entry[f"{label}.p99"] = float(p99)
            stats[name] = entry
        return stats

    def write(self, path: Path) -> None:
        """Write every recorded span to a ``.npz`` file."""
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.uint16),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            op=np.frombuffer(self.op, dtype=np.int64),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            child=np.frombuffer(self.child, dtype=np.float64),
        )
