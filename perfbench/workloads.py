"""The benchmark's four workloads and their correctness oracles.

Each workload builds its inputs from the seed, runs one operation at a
time (a solver step, or one closed sweep of service requests), and after
the timed window checks its outputs against an oracle, untimed:

- ``blast2d``    serial ``Solver``, cext target; the final steps are
                 replayed from a checkpoint on the ``flat`` target and
                 must match bitwise.
- ``blast2d-mp`` the same problem on ``ProcessSolver`` with 2 ranks; the
                 last run of the problem is replayed on the serial
                 ``Solver`` and must match the gathered ranks bitwise.
- ``sweep1d``    ``BatchService`` closed sweeps of seeded 1-D shock tubes,
                 a numpy group and a cext group; every response must be
                 ``ok``, and the last sweep is replayed batch by batch on
                 the ``flat`` target.
- ``amr-blast``  ``AMRProcessSolver`` with 2 ranks; the last run of the
                 problem is replayed on the serial ``AMRSolver`` and every
                 leaf block must match bitwise.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import numpy as np

from repro.core import SolverConfig
from repro.core.amr_parallel import AMRProcessSolver
from repro.core.amr_solver import AMRConfig, AMRSolver
from repro.core.parallel import ProcessSolver
from repro.core.solver import Solver
from repro.eos import IdealGasEOS
from repro.io.checkpoint import load_checkpoint, save_checkpoint
from repro.mesh.grid import Grid
from repro.obs import BufferSink, StepRecorder
from repro.physics.initial_data import blast_wave_2d
from repro.physics.srhd import SRHDSystem
from repro.serve.service import OK, BatchService

import tracing

#: steps run after the timed window and replayed by the oracle
TAIL_STEPS = 2


def _blast_params(seed: int) -> dict:
    rng = random.Random(seed)
    return {
        "p_in": rng.uniform(80.0, 120.0),
        "radius": rng.uniform(0.09, 0.11),
        "center": (rng.uniform(0.45, 0.55), rng.uniform(0.45, 0.55)),
    }


def _retarget_checkpoint(src: Path, dst: Path, **config) -> None:
    """Copy a unigrid checkpoint, overriding solver-config fields."""
    with np.load(src, allow_pickle=False) as data:
        arrays = {k: np.array(data[k]) for k in data.files}
    meta = json.loads(str(arrays.pop("meta")))
    meta["config"].update(config)
    np.savez(dst, meta=json.dumps(meta), **arrays)


class Workload:
    """One workload: ``build`` (set-up), ``op`` (timed), then ``finish``
    (leave the program, untimed) and ``oracle`` (untimed)."""

    name = ""
    #: operations per tracing block (on, then off)
    trace_block = 8
    #: reference-loop runs timed before each operation (``calib.py``)
    calib_reps = 1
    #: simulated end time of one run of the blast problems (the CLI's
    #: blast2d end time); past it con2prim fails on the evacuated
    #: interior, so the problem restarts from its initial state, untimed
    t_end = 0.2

    def __init__(self, seed: int, tiny: bool, workdir: Path):
        self.seed, self.tiny, self.workdir = seed, tiny, workdir
        self.zone_updates = 0
        self.latencies: list[float] = []
        self.failed_ops = 0
        #: per rank: span chunks and op logs handed back by traced workers
        self.rank_spans: dict[int, list] = {}
        self.rank_ops: dict[int, list] = {}

    def first_op(self):
        """The operation that ends set-up."""
        self.op()

    def run_finished(self) -> bool:
        """Whether the current run of the problem has reached ``t_end``.
        The timed window ends only then, so it holds whole runs (after
        the first, which set-up began) and every window has the same mix
        of early and late steps."""
        return self.solver.t >= self.t_end * (1.0 - 1e-12)

    def prepare(self):
        """Untimed work before the next operation: restart a finished run."""
        if self.run_finished():
            self.restart()

    def counters(self) -> dict:
        """Program counters at this point (cumulative)."""
        return {}

    def close(self) -> None:
        pass

    def snapshots(self) -> list[dict]:
        """``worker_snapshots()``, keeping any spans the workers attach."""
        snaps = self.solver.worker_snapshots()
        for snap in snaps:
            trace = snap.pop("perfbench", None)
            if trace is not None:
                self.rank_spans.setdefault(trace["rank"], []).append(
                    trace["spans"])
                self.rank_ops.setdefault(trace["rank"], []).extend(
                    trace["ops"])
        return snaps


class Blast2D(Workload):
    name = "blast2d"
    #: cells per side (see perfbench/METRICS.md, "Grid sizes")
    size = 112

    def build(self):
        n = 48 if self.tiny else self.size
        self.system = SRHDSystem(IdealGasEOS(), ndim=2)
        self.grid = Grid((n, n), ((0.0, 1.0), (0.0, 1.0)))
        self.prim0 = blast_wave_2d(
            self.system, self.grid, smoothing=0.02,
            **_blast_params(self.seed)
        )
        #: counters of solvers already replaced by a restart
        self.retired: dict = {}
        self.solver = self._make_solver()

    def _make_solver(self):
        return Solver(self.system, self.grid, self.prim0,
                      SolverConfig(kernel_target="cext"))

    def restart(self):
        """A new solver; its first step (cold buffers) is part of the
        restart, like the set-up step of the first run."""
        self.retired = self.counters()["metrics"]
        self.solver = self._make_solver()
        self.solver.step(t_final=self.t_end)

    def op(self):
        self.solver.step(t_final=self.t_end)
        self.zone_updates += self.grid.n_cells

    def counters(self) -> dict:
        """Solver counters summed over every run of the problem so far."""
        counters = dict(self.solver.metrics.snapshot()["counters"])
        for name, value in self.retired.items():
            counters[name] = counters.get(name, 0.0) + value
        return {"metrics": counters}

    def fused_active(self) -> bool:
        names = {name for name, _ in self.solver.timers.items()}
        return "face_flux" in names and "reconstruct" not in names

    def finish(self):
        self.prepare()
        self.ckpt = self.workdir / f"{self.name}-ckpt.npz"
        save_checkpoint(self.solver, self.ckpt)
        for _ in range(TAIL_STEPS):
            self.solver.step(t_final=self.t_end)
        self.final = self.solver.cons.copy()

    def oracle(self) -> tuple[bool, str]:
        flat = self.workdir / f"{self.name}-ckpt-flat.npz"
        _retarget_checkpoint(self.ckpt, flat, kernel_target="flat")
        ref = load_checkpoint(flat, self.system)
        for _ in range(TAIL_STEPS):
            ref.step(t_final=self.t_end)
        ok = np.array_equal(ref.cons, self.final)
        return ok, "" if ok else "cext state differs from the flat replay"


class Blast2DMP(Blast2D):
    name = "blast2d-mp"
    size = 160

    def _make_solver(self):
        solver = ProcessSolver(
            self.system, self.grid, self.prim0, (2, 1),
            SolverConfig(kernel_target="cext", executor="process"),
        )
        self.shards0 = solver.checkpoint_shards()
        self.restored = False
        return solver

    def restart(self):
        self.solver.restore_state(0.0, 0, self.shards0)
        self.restored = True

    def counters(self) -> dict:
        return {"ranks": self.snapshots()}

    def fused_active(self) -> bool:
        return all(
            "face_flux" in s["timers"] and "reconstruct" not in s["timers"]
            for s in self.last_snapshots
        )

    def finish(self):
        self.steps = self.solver.steps
        self.final = self.solver.gather_cons()
        self.last_snapshots = self.snapshots()
        self.close()

    def close(self):
        if getattr(self, "solver", None) is not None:
            self.solver.close()

    def oracle(self) -> tuple[bool, str]:
        """Replay the last run of the problem on the serial Solver."""
        ref = Blast2D._make_solver(self)
        if self.restored:
            # A run restarted by restore_state begins from the conserved
            # state alone (primitives recovered, no con2prim warm start),
            # as a checkpoint restart does; its first dt can differ in
            # the last bit from a fresh solver's.
            path = self.workdir / f"{self.name}-start.npz"
            save_checkpoint(ref, path)
            ref = load_checkpoint(path, self.system)
        for _ in range(self.steps):
            ref.step(t_final=self.t_end)
        decomp = self.solver.decomp
        want = decomp.gather(
            {r: decomp.subgrid(r).interior_of(c) for r, c in self.final.items()},
            self.system.nvars,
        )
        ok = np.array_equal(self.grid.interior_of(ref.cons), want)
        return ok, "" if ok else "process state differs from the serial Solver"


class Sweep1D(Workload):
    name = "sweep1d"
    trace_block = 1
    #: one sweep takes ~0.5 s and scales all its request latencies by
    #: one factor: a median of 15 reference runs (~50 ms) steadies it
    calib_reps = 15

    def build(self):
        self.nx = 16 if self.tiny else 64
        # Batches of 32 numpy, then 64 and 32 cext requests under the
        # default max_batch; all members of a batch finish together, so
        # request latencies form three clusters: 25%, 50% and 25% of the
        # requests.  p50 falls in the middle of the second cluster (the
        # median sweep's value) and p90 inside the third, never on a
        # batch boundary.
        self.n_numpy, self.n_cext = (2, 3) if self.tiny else (32, 96)
        self.rng = random.Random(self.seed)
        self.svc = BatchService()
        self.rounds: list[list] = []

    def run_finished(self) -> bool:
        return True

    def prepare(self):
        pass

    def first_op(self):
        """Set-up ends after one warm-up request per batch key."""
        for req in self.svc.sweep(self.family(1, 1)):
            if req.status != OK:
                raise RuntimeError(f"warm-up request failed: {req.error}")

    def family(self, n_numpy: int, n_cext: int) -> list[dict]:
        specs = []
        for target, count in (("numpy", n_numpy), ("cext", n_cext)):
            for _ in range(count):
                problem = self.rng.choice(("RP1", "RP2"))
                rho, p = {"RP1": (10.0, 13.33), "RP2": (1.0, 1000.0)}[problem]
                specs.append({
                    "kind": "shock_tube", "problem": problem, "nx": self.nx,
                    "t_final": 0.2, "kernel_target": target,
                    "left": {"rho": rho, "v": 0.0,
                             "p": p * self.rng.uniform(0.9, 1.1)},
                })
        return specs

    def op(self):
        specs = self.family(self.n_numpy, self.n_cext)
        reqs = self.svc.sweep(specs)
        self.rounds.append(reqs)
        for req in reqs:
            self.latencies.append(req.latency_s)
            if req.status == OK:
                self.zone_updates += self.nx * req.result["steps"]
            else:
                self.failed_ops += 1

    def counters(self) -> dict:
        return {"service": self.svc.metrics.snapshot(),
                "rounds": len(self.rounds)}

    def finish(self):
        self.final = self.rounds[-1] if self.rounds else []

    def oracle(self) -> tuple[bool, str]:
        bad = [r for rnd in self.rounds for r in rnd if r.status != OK]
        if bad:
            return False, f"{len(bad)} requests not ok: {bad[0].error}"
        # Replay the last sweep batch by batch (same members, same order)
        # on the flat target.  cext must match flat bitwise; the numpy
        # kernels are hand-written, not generated, so they match flat to
        # rounding only.
        batches: list[list] = []
        for target in ("numpy", "cext"):
            group = [r for r in self.final if r.spec.kernel_target == target]
            for lo in range(0, len(group), self.svc.max_batch):
                batches.append(group[lo:lo + self.svc.max_batch])
        for batch in batches:
            replay = BatchService(max_batch=len(batch)).sweep(
                [dict(r.spec.to_dict(), kernel_target="flat") for r in batch]
            )
            for got, ref in zip(batch, replay):
                if ref.status != OK:
                    return False, f"flat replay failed: {ref.error}"
                if got.spec.kernel_target == "cext":
                    same = got.result == ref.result
                else:
                    same = got.result["steps"] == ref.result["steps"] and all(
                        np.isclose(got.result[k], ref.result[k],
                                   rtol=1e-9, atol=0.0)
                        for k in ("t", "rho_max", "p_max")
                    )
                if not same:
                    return False, (
                        f"request {got.id} ({got.spec.kernel_target}) "
                        f"{got.result} != flat replay {ref.result}"
                    )
        return True, ""

    def fused_active(self) -> bool:
        """Whether the service's cext batches run the fused face-flux
        sweep: one extra cext request, with its solver's timers kept."""
        from repro.core import batch

        seen = []
        run = batch.BatchSolver.run

        def keep(solver, *a, **k):
            seen.append(solver)
            return run(solver, *a, **k)

        batch.BatchSolver.run = keep
        try:
            BatchService().sweep(self.family(0, 1))
        finally:
            batch.BatchSolver.run = run
        names = {name for name, _ in seen[0].timers.items()}
        return "face_flux" in names and "reconstruct" not in names


def _amr_ic(params):
    def ic(system, grid):
        return blast_wave_2d(system, grid, smoothing=0.02, **params)
    return ic


class AMRBlast(Workload):
    name = "amr-blast"

    def build(self):
        n = 16 if self.tiny else 32
        rng = random.Random(self.seed)
        params = {
            # Below p_in ~ 49 more regrids in each run migrate blocks,
            # which changes the share of slow steps and so moves p90;
            # the range keeps every seed on one side of that change.
            "p_in": rng.uniform(51.0, 55.0),
            "radius": 0.12,
            # The centre is fixed (BENCH_amr_parallel's): the Morton cuts,
            # and so the migration steps, then follow the same pattern
            # for every seed.
            "center": (0.3, 0.35),
        }
        self.system = SRHDSystem(IdealGasEOS(), ndim=2)
        self.root = Grid((n, n), ((0.0, 1.0), (0.0, 1.0)))
        self.ic = _amr_ic(params)
        # The step after a block migration compiles the arriving blocks'
        # kernels (~4x a plain step).  Regridding every 2 steps at
        # threshold 1.03, 13 of the 61 steps of each run of the problem
        # are such steps (21%): p90 falls in the middle of that
        # population and p50 among the plain steps, each away from the
        # boundary between the two.  (Every 3 steps, 7 of 61 (11.5%)
        # put p90 on the edge of the slow population.)
        self.amr = AMRConfig(
            block_size=8, max_levels=2, refine_threshold=0.3,
            coarsen_threshold=0.15, regrid_interval=2,
            rebalance_threshold=1.03,
        )
        #: per step: (previous step's amr record or None, this step record)
        self.step_pairs: list[tuple[dict | None, dict]] = []
        #: counters of worker generations already shut down, per rank
        self.retired: list[dict] = []
        self._spawn()

    def _spawn(self):
        tracing.align_workers()
        self.sink = BufferSink()
        self._seen = 0
        self._prev_amr = None
        self.solver = AMRProcessSolver(
            self.system, self.root, self.ic,
            config=SolverConfig(cfl=0.4, executor="process",
                                kernel_target="cext"),
            amr=self.amr, recorder=StepRecorder(self.sink), n_ranks=2,
        )

    def restart(self):
        """No in-place restore for the AMR executor: retire the workers'
        counters, shut them down and build the solver again."""
        self.retired = self.counters()["ranks"]
        self.solver.close()
        self._spawn()
        # The first step of new workers compiles every block's kernels:
        # part of the restart, like the set-up step of the first run.
        self.solver.step(t_final=self.t_end)
        steps = [r for r in self.sink.records if r.get("event") == "step"]
        self._prev_amr = steps[-1]["amr"]
        self._seen = len(self.sink.records)

    def op(self):
        self.solver.step(t_final=self.t_end)
        for rec in self.sink.records[self._seen:]:
            if rec.get("event") == "step":
                self.zone_updates += rec["amr"]["cells_updated"]
                self.step_pairs.append((self._prev_amr, rec))
                self._prev_amr = rec["amr"]
        self._seen = len(self.sink.records)

    def counters(self) -> dict:
        """Worker counters summed over every worker generation so far."""
        snaps = self.snapshots()
        for old, snap in zip(self.retired, snaps):
            snap["process_seconds"] += old["process_seconds"]
            counters = snap["metrics"]["counters"]
            for name, value in old["metrics"]["counters"].items():
                counters[name] = counters.get(name, 0.0) + value
        return {"ranks": snaps, "steps": len(self.step_pairs)}

    def fused_active(self) -> bool:
        return all(
            "face_flux" in s["timers"] and "reconstruct" not in s["timers"]
            for s in self.last_snapshots
        )

    def finish(self):
        self.final = self.solver.gather_blocks()
        self.steps = self.solver.steps
        self.last_snapshots = self.snapshots()
        self.close()

    def close(self):
        if getattr(self, "solver", None) is not None:
            self.solver.close()

    def oracle(self) -> tuple[bool, str]:
        """Replay the last run of the problem on the serial AMRSolver."""
        ref = AMRSolver(
            self.system, self.root, self.ic,
            SolverConfig(cfl=0.4, kernel_target="cext"), self.amr,
        )
        for _ in range(self.steps):
            ref.step(t_final=self.t_end)
        leaves = ref.forest.leaves
        if set(leaves) != set(self.final):
            return False, "forest topology differs from the serial AMRSolver"
        for key, cons in self.final.items():
            if not np.array_equal(leaves[key].cons, cons):
                return False, f"block {key} differs from the serial AMRSolver"
        return True, ""


WORKLOADS = {w.name: w for w in (Blast2D, Blast2DMP, Sweep1D, AMRBlast)}
