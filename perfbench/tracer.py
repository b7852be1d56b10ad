"""In-memory span tracer that wraps l3rs's public functions from outside.

Each traced function is replaced, for the duration of a traced pass, at every
name it is looked up under (a module global such as ``meta.loss_and_grad``,
or a class attribute for methods). A span is (name, start, end, parent);
spans live in flat integer arrays and are written out once, at the end.
Self time is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import time
from array import array

import numpy as np

from l3rs import bench, controller, meta, optdir

# (span name, [(owner, attribute), ...]); the owners are where callers look
# the function up, which is not always the module that defines it.
CHILD_SIDE = [
    ("nnlite.loss_and_grad", [(meta, "loss_and_grad")]),
    ("nnlite.forward", [(meta, "forward")]),
    ("optdir.DirectionBank.step", [(optdir.DirectionBank, "step")]),
    ("controller.ControllerContext.__init__", [(controller.ControllerContext, "__init__")]),
    ("controller.ControllerContext.step", [(controller.ControllerContext, "step")]),
    ("controller.ControllerContext.decide", [(controller.ControllerContext, "decide")]),
    ("controller.EmaTracker.update", [(controller.EmaTracker, "update")]),
    ("controller.compose_update", [(controller, "compose_update")]),
    ("controller.unflatten", [(meta, "unflatten")]),
    ("meta.make_task", [(meta, "make_task"), (bench, "make_task")]),
    ("meta.inner_loop_eval", [(meta, "inner_loop_eval"), (bench, "inner_loop_eval")]),
    ("bench.BaselineStepper.step", [(bench.BaselineStepper, "step")]),
]
# functions that run in the process driving the run, whatever the worker count
PARENT_SIDE = [
    ("meta.CandidateEvaluator.__call__", [(meta.CandidateEvaluator, "__call__")]),
    ("meta.nes_update", [(meta, "nes_update")]),
]
SETUP = [("meta.pretrain_checkpoint", [(meta, "pretrain_checkpoint")])]
NAMES = [name for name, _ in CHILD_SIDE + PARENT_SIDE + SETUP]


class Tracer:
    def __init__(self):
        self.name_ids = {name: i for i, name in enumerate(NAMES)}
        self.names = array("q")
        self.parents = array("q")
        self.starts = array("q")
        self.ends = array("q")
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.traced_ns = 0
        self.runs = 0
        self.diverged = 0

    def _wrap(self, name: str, fn):
        nid = self.name_ids[name]
        names, parents, starts, ends = self.names, self.parents, self.starts, self.ends
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            starts.append(0)
            ends.append(0)
            stack.append(sid)
            starts[sid] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()

        if name == "meta.inner_loop_eval":
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                result = traced(*args, **kwargs)
                self.runs += 1
                self.diverged += bool(result.diverged)
                return result
            return counted
        return traced

    def install(self, table) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for name, sites in table:
            for owner, attr in sites:
                original = owner.__dict__[attr]
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def traced(self, table, fn):
        """Call fn() with ``table`` wrapped; its wall time counts as traced time."""
        self.install(table)
        t0 = time.perf_counter_ns()
        try:
            return fn()
        finally:
            self.traced_ns += time.perf_counter_ns() - t0
            self.uninstall()

    def arrays(self):
        return (np.frombuffer(self.names, dtype=np.int64),
                np.frombuffer(self.parents, dtype=np.int64),
                np.frombuffer(self.starts, dtype=np.int64),
                np.frombuffer(self.ends, dtype=np.int64))

    def summary(self) -> dict[str, dict[str, float]]:
        """Per function: calls, median self time per call (us), share of
        traced wall time spent in its own code."""
        names, parents, starts, ends = self.arrays()
        dur = ends - starts
        child = np.zeros_like(dur)
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], dur[has_parent])
        self_ns = dur - child
        out = {}
        for name, nid in self.name_ids.items():
            mine = self_ns[names == nid]
            out[name] = {
                "calls": int(len(mine)),
                "self_us": float(np.median(mine)) / 1e3 if len(mine) else 0.0,
                "share": float(mine.sum()) / self.traced_ns if self.traced_ns else 0.0,
            }
        return out

    def save(self, path) -> None:
        names, parents, starts, ends = self.arrays()
        np.savez(path, name_table=np.array(NAMES), name=names, parent=parents,
                 start_ns=starts, end_ns=ends)
