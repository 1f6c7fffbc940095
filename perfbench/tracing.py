"""Span tracing for the benchmark, recorded from outside the program.

The tracer wraps public methods of the program's classes with functions
that record one span per call: layer name, start, end and parent span.
Nothing under ``src/`` changes; the wrappers are installed on the classes
at run time, in the driver process and, through the spawn start method's
re-import of the main module, in every worker rank process as well.
Worker spans travel back to the driver inside the snapshot dict that
``ProcessSolver.worker_snapshots()`` already returns.

Tracing alternates on and off in blocks of operations (solver steps, or
service drains), so one traced run yields both the per-layer spans and
the tracing overhead: mean traced operation time over mean untraced
operation time, minus one.  Worker ranks follow the same schedule because
they count the same steps as the driver.
"""

from __future__ import annotations

import functools
import os
import statistics
import time

#: environment variable that turns tracing on in every process of a run
ENV = "PERFBENCH_TRACE"


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self, block: int, offset: int = 0):
        self.block = block
        #: operations started in this process, plus those the driver had
        #: started before this (worker) process was spawned
        self.n_ops = offset
        #: spans as [name, start, end, parent index, args]
        self.spans: list[list] = []
        self._stack: list[int] = []
        #: per operation: (name, start, end, traced)
        self.ops: list[tuple[str, float, float, bool]] = []
        self.enabled = True
        #: False stops all recording (oracle replays run untraced)
        self.active = True

    def _open(self, name: str, args: dict) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, args])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self._stack.pop()
        self.spans[idx][2] = time.perf_counter()

    def drain(self) -> list[list]:
        """Hand over the spans recorded so far (none may be open)."""
        if self._stack:
            raise RuntimeError("cannot drain spans while spans are open")
        spans, self.spans = self.spans, []
        return spans


TRACER: Tracer | None = None


def _wrap(owner, attr: str, name: str, args_of=None) -> None:
    """Replace ``owner.attr`` with a span-recording wrapper."""
    fn = owner.__dict__[attr]

    @functools.wraps(fn)
    def wrapper(*a, **k):
        t = TRACER
        # A subclass calling its base's wrapped method is one span.
        if not (t.active and t.enabled) or (
                t._stack and t.spans[t._stack[-1]][0] == name):
            return fn(*a, **k)
        idx = t._open(name, args_of(*a, **k) if args_of else {})
        try:
            return fn(*a, **k)
        finally:
            t._close(idx)

    setattr(owner, attr, wrapper)


def _wrap_op(owner, attr: str, name: str) -> None:
    """Wrap an operation boundary: decides whether the operation is
    traced (blocks of ``TRACER.block`` on, then off) and logs its time."""
    fn = owner.__dict__[attr]

    @functools.wraps(fn)
    def wrapper(*a, **k):
        t = TRACER
        if not t.active:
            return fn(*a, **k)
        traced = (t.n_ops // t.block) % 2 == 0
        t.n_ops += 1
        t.enabled = traced
        start = time.perf_counter()
        idx = t._open(name, {}) if traced else None
        try:
            return fn(*a, **k)
        finally:
            if idx is not None:
                t._close(idx)
            t.ops.append((name, start, time.perf_counter(), traced))
            t.enabled = True

    setattr(owner, attr, wrapper)


def _face_flux_args(self, prim, axis, row_offsets, j0, n_faces, out, **kw):
    faces = int(row_offsets.size) * int(n_faces)
    # Computed, not measured: the primitive rows the sweep reads plus the
    # flux rows it writes, from the array sizes of this call.
    nvars = prim.shape[0]
    read = nvars * int(row_offsets.size) * prim.shape[axis + 1] * prim.itemsize
    return {"faces": faces, "bytes": read + int(out.nbytes)}


def _c2p_args(self, D, *a, **k):
    return {"cells": int(D.size)}


def _flux_divergence_args(self, *a, **k):
    from repro.codegen.system import CompiledSRHDSystem

    return {"compiled": isinstance(self.system, CompiledSRHDSystem)}


def _reconstruct_args(*a, **k):
    """Flags an interpreted reconstruction under a pipeline whose system
    is compiled: the face-flux stage fell back from the fused sweep."""
    t = TRACER
    fallback = any(
        t.spans[i][0] == "core.pipeline.flux_divergence"
        and t.spans[i][4].get("compiled")
        for i in t._stack
    )
    return {"fallback": int(fallback)}


def install(block: int, offset: int = 0) -> Tracer:
    """Wrap every traced layer; idempotent per process."""
    global TRACER
    if TRACER is not None:
        return TRACER
    TRACER = Tracer(block, offset)

    from repro.codegen import system as cg_system
    from repro.core import amr_parallel, amr_solver, batch, parallel, pipeline, solver
    from repro.core.amr_distributed import DistributedAMRSolver
    from repro.reconstruct.base import Reconstruction
    from repro.riemann.base import RiemannSolver
    from repro.serve import service

    _wrap_op(solver.Solver, "step", "core.solver.step")
    _wrap_op(parallel.ProcessSolver, "step", "core.parallel.step")
    _wrap_op(parallel._RankWorker, "step", "core.parallel.rank_step")
    _wrap_op(amr_parallel._AMRRankWorker, "step", "core.parallel.rank_step")
    _wrap_op(service.BatchService, "drain", "serve.drain")

    _wrap(solver.Solver, "compute_dt", "time_integration.compute_dt")
    _wrap(parallel._RankWorker, "compute_dt", "time_integration.compute_dt")
    _wrap(amr_solver.AMRSolver, "compute_dt", "time_integration.compute_dt")
    _wrap(amr_solver.AMRSolver, "step", "mesh.amr.step")
    _wrap(amr_solver.AMRSolver, "regrid", "mesh.amr.regrid")
    _wrap(pipeline.HydroPipeline, "rhs", "core.pipeline.rhs")
    _wrap(pipeline.HydroPipeline, "recover_primitives", "core.pipeline.recover")
    for cls in (pipeline.HydroPipeline, batch.BatchPipeline):
        _wrap(cls, "flux_divergence", "core.pipeline.flux_divergence",
              _flux_divergence_args)
    _wrap(cg_system.CompiledSRHDSystem, "face_flux", "codegen.face_flux",
          _face_flux_args)
    _wrap(cg_system.CompiledSRHDSystem, "c2p_newton", "codegen.c2p_newton",
          _c2p_args)
    _wrap(cg_system.CompiledSRHDSystem, "char_speeds", "codegen.char_speeds")
    _wrap(cg_system, "make_kernel_system", "codegen.make_kernel_system")
    for cls in [Reconstruction, *_subclasses(Reconstruction)]:
        if "interface_states" in cls.__dict__:
            _wrap(cls, "interface_states", "reconstruct.interface_states",
                  _reconstruct_args)
    for cls in [RiemannSolver, *_subclasses(RiemannSolver)]:
        if "flux" in cls.__dict__:
            _wrap(cls, "flux", "riemann.flux")
    _wrap(parallel, "exchange_halos", "comm.halo.exchange")
    _wrap(service.BatchService, "submit", "serve.submit")
    _wrap(service.BatchService, "kernel_system", "serve.kernel_system")
    _wrap(batch.BatchSolver, "step", "core.batch.step")
    _wrap(solver.Solver, "__init__", "core.solver.init")
    _wrap(parallel.ProcessSolver, "__init__", "core.parallel.init")
    _wrap(amr_parallel.AMRProcessSolver, "__init__", "core.parallel.init")
    _wrap(DistributedAMRSolver, "__init__", "mesh.amr.initial_refine")

    # Worker ranks hand their spans back inside the snapshot reply.
    for cls in (parallel._RankWorker, amr_parallel._AMRRankWorker):
        _attach_spans_to_snapshot(cls)
    return TRACER


def _subclasses(cls):
    out = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out.extend(_subclasses(sub))
    return out


def _attach_spans_to_snapshot(cls) -> None:
    fn = cls.__dict__["snapshot"]

    @functools.wraps(fn)
    def snapshot(self):
        snap = fn(self)
        t = TRACER
        snap["perfbench"] = {
            "rank": int(self.rank),
            "pid": os.getpid(),
            "spans": t.drain(),
            "ops": list(t.ops),
        }
        t.ops = []
        return snap

    setattr(cls, "snapshot", snapshot)


def install_from_env() -> Tracer | None:
    """Install when the run asked for tracing
    (``PERFBENCH_TRACE=<block>[:<operations already started>]``)."""
    value = os.environ.get(ENV)
    if not value:
        return None
    block, _, offset = value.partition(":")
    return install(int(block), int(offset or 0))


def align_workers() -> None:
    """Workers spawned from now on start their on/off schedule where the
    driver's is, so a rank traces the same steps as the driver."""
    if TRACER is not None:
        os.environ[ENV] = f"{TRACER.block}:{TRACER.n_ops}"


# -- analysis -------------------------------------------------------------

def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def join(chunks: list[list[list]]) -> list[list]:
    """Concatenate span lists drained one after another, re-basing the
    parent indices of each chunk."""
    out: list[list] = []
    for chunk in chunks:
        base = len(out)
        out.extend([s[0], s[1], s[2], s[3] + base if s[3] >= 0 else -1, s[4]]
                   for s in chunk)
    return out


class Lane:
    """The spans and operations of one process (driver or one rank).

    ``window(lo, hi)`` keeps the spans that start inside ``[lo, hi)``;
    self times are computed on the whole tree first, so a span keeps its
    own time whether or not its parent falls inside the window.
    """

    def __init__(self, label: str, spans: list[list], ops: list, own=None):
        self.label = label
        self.spans = spans
        self.ops = ops
        self.self_s = self_times(spans) if own is None else own

    def window(self, lo: float, hi: float) -> "Lane":
        keep = [i for i, s in enumerate(self.spans) if lo <= s[1] < hi]
        return Lane(
            self.label,
            [self.spans[i] for i in keep],
            [o for o in self.ops if lo <= o[1] < hi],
            [self.self_s[i] for i in keep],
        )

    def total(self, *names: str) -> float:
        return sum((s[2] - s[1] for s in self.spans if s[0] in names), 0.0)

    def count(self, *names: str) -> int:
        return sum(1 for s in self.spans if s[0] in names)

    def own(self, *names: str) -> float:
        return sum((o for s, o in zip(self.spans, self.self_s)
                    if s[0] in names), 0.0)

    def arg_sum(self, name: str, key: str) -> float:
        return sum((s[4].get(key, 0) for s in self.spans if s[0] == name), 0.0)


def overhead_frac(ops: list) -> float:
    """Median traced op time over median untraced op time, minus one.

    Medians, because slow steps (AMR migrations) recur with the problem's
    own period and would bias means taken over alternating blocks.
    """
    traced = [e - s for _n, s, e, tr in ops if tr]
    plain = [e - s for _n, s, e, tr in ops if not tr]
    if not traced or not plain:
        return 0.0
    return statistics.median(traced) / statistics.median(plain) - 1.0


def save_trace(lanes: list[Lane], residuals: list[tuple[float, float]], path) -> None:
    """Export measured spans through the simulated runtime's exporter.

    One lane per process (driver, rank 0, rank 1, ...), plus a
    ``residual`` lane holding one ``core.pipeline.unattributed`` span per
    traced step, so modelled and measured timelines open in one viewer.
    """
    from repro.runtime.task import Task, TaskRecord, Timeline
    from repro.runtime.trace import save_chrome_trace

    starts = [s[1] for lane in lanes for s in lane.spans]
    t0 = min(starts, default=0.0)
    timeline = Timeline()
    for lane in lanes:
        for i, s in enumerate(lane.spans):
            task = Task(id=f"{s[0]}#{i}", kernel=s[0],
                        n_cells=int(s[4].get("cells", s[4].get("faces", 0))))
            timeline.add(TaskRecord(task, lane.label, s[1] - t0, s[2] - t0))
    for i, (start, dur) in enumerate(residuals):
        task = Task(id=f"core.pipeline.unattributed#{i}",
                    kernel="core.pipeline.unattributed")
        timeline.add(TaskRecord(task, "residual", start - t0, start - t0 + dur))
    save_chrome_trace(timeline, path)
