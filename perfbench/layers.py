"""Per-layer metrics of one traced run.

Span metrics (``*_s`` per step, call counts) come from the traced steps
of the timed window only; counter metrics (con2prim, shm, service, AMR)
are deltas of what the program already exports — ``metrics.snapshot()``,
``ProcessSolver.worker_snapshots()``, ``StepRecorder`` step records,
``Request`` fields — over the whole window.  A metric of a layer the
workload does not run reads 0.  See ``perfbench/METRICS.md``.
"""

from __future__ import annotations

import numpy as np

import tracing

#: spans that delimit one solver step in the process that computes it
STEP_SPANS = ("core.solver.step", "core.parallel.rank_step", "core.batch.step")
#: spans whose own time no named child span covers
CONTAINER_SPANS = STEP_SPANS + ("mesh.amr.step", "core.pipeline.rhs")

NAMES = (
    "time_integration.compute_dt_s",
    "core.solver.step_self_s",
    "core.pipeline.rhs_calls",
    "core.pipeline.recover_s",
    "core.pipeline.recover_calls",
    "core.pipeline.flux_divergence_s",
    "core.pipeline.unattributed_s",
    "codegen.face_flux_s",
    "codegen.face_flux_calls",
    "codegen.face_flux_ns_per_face",
    "codegen.face_flux_bytes_per_face",
    "codegen.c2p_newton_s",
    "codegen.char_speeds_s",
    "codegen.fallbacks",
    "physics.con2prim.cells",
    "physics.con2prim.newton_converged_frac",
    "physics.con2prim.bisection",
    "reconstruct.interface_states_s",
    "riemann.flux_s",
    "core.parallel.step_s",
    "core.parallel.rank_step_s_max",
    "core.parallel.parent_overhead_s",
    "core.parallel.rank_cpu_s",
    "core.parallel.rank_imbalance",
    "comm.shm.recv_wait_s",
    "comm.shm.barrier_wait_s",
    "comm.shm.send_block_s",
    "comm.shm.messages_per_step",
    "comm.shm.bytes_per_step",
    "comm.wait_frac",
    "serve.submit_s",
    "serve.queue_wait_s_p50",
    "serve.solve_s",
    "serve.batches",
    "serve.batch_size_mean",
    "serve.kernel_cache_hit_ratio",
    "core.batch.step_s",
    "core.batch.scenarios_evicted",
    "mesh.amr.cells_updated",
    "mesh.amr.repartitions",
    "mesh.amr.migrated_blocks",
    "mesh.amr.repartition_s",
    "mesh.amr.imbalance_max",
    "mesh.amr.regrid_step_s_p50",
    "mesh.amr.plain_step_s_p50",
    "setup.import_s",
    "setup.codegen_s",
    "setup.spawn_s",
    "setup.initial_refine_s",
    "setup.first_step_s",
    "trace.overhead_frac",
)


def _div(a: float, b: float) -> float:
    return a / b if b else 0.0


def _delta(c1: dict, c0: dict, name: str) -> float:
    return c1.get(name, 0.0) - c0.get(name, 0.0)


def _lanes(w) -> list[tracing.Lane]:
    t = tracing.TRACER
    lanes = [tracing.Lane("driver", t.drain(), t.ops)]
    for rank in sorted(w.rank_spans):
        lanes.append(tracing.Lane(
            f"rank {rank}", tracing.join(w.rank_spans[rank]),
            w.rank_ops.get(rank, []),
        ))
    return lanes


def _kernels(m: dict, lanes: list[tracing.Lane]) -> None:
    """Pipeline / codegen / interpreted-kernel layers, summed over the
    processes that compute, per step of each."""

    def per_step(fn):
        return sum(_div(fn(lane), lane.count(*STEP_SPANS)) for lane in lanes)

    m["time_integration.compute_dt_s"] = per_step(
        lambda l: l.total("time_integration.compute_dt"))
    m["core.solver.step_self_s"] = per_step(lambda l: l.own(*STEP_SPANS))
    m["core.pipeline.rhs_calls"] = per_step(lambda l: l.count("core.pipeline.rhs"))
    m["core.pipeline.recover_s"] = per_step(lambda l: l.total("core.pipeline.recover"))
    m["core.pipeline.recover_calls"] = per_step(
        lambda l: l.count("core.pipeline.recover"))
    m["core.pipeline.flux_divergence_s"] = per_step(
        lambda l: l.total("core.pipeline.flux_divergence"))
    m["core.pipeline.unattributed_s"] = per_step(lambda l: l.own(*CONTAINER_SPANS))
    m["codegen.face_flux_s"] = per_step(lambda l: l.total("codegen.face_flux"))
    m["codegen.face_flux_calls"] = per_step(lambda l: l.count("codegen.face_flux"))
    faces = sum(l.arg_sum("codegen.face_flux", "faces") for l in lanes)
    m["codegen.face_flux_ns_per_face"] = 1e9 * _div(
        sum(l.total("codegen.face_flux") for l in lanes), faces)
    m["codegen.face_flux_bytes_per_face"] = _div(
        sum(l.arg_sum("codegen.face_flux", "bytes") for l in lanes), faces)
    m["codegen.c2p_newton_s"] = per_step(lambda l: l.total("codegen.c2p_newton"))
    m["codegen.char_speeds_s"] = per_step(lambda l: l.total("codegen.char_speeds"))
    m["codegen.fallbacks"] = per_step(
        lambda l: l.arg_sum("reconstruct.interface_states", "fallback"))
    m["reconstruct.interface_states_s"] = per_step(
        lambda l: l.total("reconstruct.interface_states"))
    m["riemann.flux_s"] = per_step(lambda l: l.total("riemann.flux"))


def _con2prim(m: dict, counters: list[tuple[dict, dict]], steps: int) -> None:
    cells = sum(_delta(c1, c0, "con2prim.cells") for c0, c1 in counters)
    conv = sum(_delta(c1, c0, "con2prim.newton_converged") for c0, c1 in counters)
    bis = sum(_delta(c1, c0, "con2prim.bisection") for c0, c1 in counters)
    m["physics.con2prim.cells"] = _div(cells, steps)
    m["physics.con2prim.newton_converged_frac"] = _div(conv, cells)
    m["physics.con2prim.bisection"] = _div(bis, steps)


def _parallel(m: dict, w, driver: tracing.Lane, snaps0, snaps1, steps: int) -> None:
    """Driver step vs slowest rank step, rank CPU and shm waits."""
    drv = [o for o in driver.ops if o[0] == "core.parallel.step"]
    lo, hi = drv[0][1], drv[-1][2]
    n_ranks = len(snaps1)
    rank_ops = {r: [o for o in w.rank_ops.get(r, []) if lo <= o[1] < hi]
                for r in range(n_ranks)}
    n = min([len(drv)] + [len(v) for v in rank_ops.values()])
    if n and all(rank_ops.values()):
        slowest = [max(rank_ops[r][i][2] - rank_ops[r][i][1] for r in rank_ops)
                   for i in range(n)]
        parent = [drv[i][2] - drv[i][1] for i in range(n)]
        m["core.parallel.step_s"] = float(np.mean(parent))
        m["core.parallel.rank_step_s_max"] = float(np.mean(slowest))
        m["core.parallel.parent_overhead_s"] = float(
            np.mean(np.subtract(parent, slowest)))
    cpu = [s1["process_seconds"] - s0["process_seconds"]
           for s0, s1 in zip(snaps0, snaps1)]
    m["core.parallel.rank_cpu_s"] = _div(float(np.mean(cpu)), steps)
    m["core.parallel.rank_imbalance"] = _div(max(cpu), float(np.mean(cpu)))
    pairs = [(s0["metrics"]["counters"], s1["metrics"]["counters"])
             for s0, s1 in zip(snaps0, snaps1)]

    def per_rank_step(name):
        return _div(sum(_delta(c1, c0, name) for c0, c1 in pairs),
                    steps * n_ranks)

    for name in ("recv_wait_s", "barrier_wait_s", "send_block_s"):
        m[f"comm.shm.{name}"] = per_rank_step(f"comm.shm.{name}")
    m["comm.shm.messages_per_step"] = per_rank_step("comm.shm.messages")
    m["comm.shm.bytes_per_step"] = per_rank_step("comm.shm.bytes")
    waits = sum(m[f"comm.shm.{n}"] for n in
                ("recv_wait_s", "barrier_wait_s", "send_block_s"))
    rank_step = _div(
        sum(o[2] - o[1] for ops in rank_ops.values() for o in ops),
        sum(len(ops) for ops in rank_ops.values()))
    m["comm.wait_frac"] = _div(waits, rank_step)
    _con2prim(m, pairs, steps)


def _amr(m: dict, w, c0: dict, c1: dict, op_s: list[float]) -> None:
    """Forest and rebalancing from the step records of the window's
    steps (one record per operation).  The process executor counts its
    halo and reflux traffic under ``comm.shm.*``."""
    pairs = w.step_pairs[c0["steps"]:c1["steps"]]
    if not pairs:
        return
    recs = [rec for _prev, rec in pairs]
    m["mesh.amr.cells_updated"] = _div(
        sum(r["amr"]["cells_updated"] for r in recs), len(recs))
    for key in ("repartitions", "migrated_blocks"):
        m[f"mesh.amr.{key}"] = float(sum(
            rec["amr"][key] - (prev or {}).get(key, 0) for prev, rec in pairs))
    m["mesh.amr.repartition_s"] = sum(
        r["counters"].get("amr.repartition_s", 0.0) for r in recs)
    m["mesh.amr.imbalance_max"] = max(r["amr"]["imbalance"] for r in recs)
    regrid, plain = [], []
    for (prev, rec), dur in zip(pairs, op_s):
        if prev is not None:
            grew = rec["amr"]["regrids"] > prev["regrids"]
            (regrid if grew else plain).append(dur)
    m["mesh.amr.regrid_step_s_p50"] = float(np.median(regrid)) if regrid else 0.0
    m["mesh.amr.plain_step_s_p50"] = float(np.median(plain)) if plain else 0.0


def _serve(m: dict, w, driver: tracing.Lane, c0: dict, c1: dict) -> None:
    window = w.rounds[c0["rounds"]:c1["rounds"]]
    reqs = [r for rnd in window for r in rnd]
    m["serve.submit_s"] = _div(driver.total("serve.submit"),
                               driver.count("serve.submit"))
    m["serve.queue_wait_s_p50"] = float(
        np.median([r.queue_wait_s for r in reqs])) if reqs else 0.0
    h0 = c0["service"]["histograms"]
    h1 = c1["service"]["histograms"]
    k0, k1 = c0["service"]["counters"], c1["service"]["counters"]

    def hdelta(name, field):
        return h1.get(name, {}).get(field, 0) - h0.get(name, {}).get(field, 0)

    m["serve.solve_s"] = _div(hdelta("serve.solve_s", "sum"),
                              hdelta("serve.solve_s", "count"))
    m["serve.batches"] = _div(_delta(k1, k0, "serve.batches"), len(window))
    m["serve.batch_size_mean"] = _div(hdelta("serve.batch_size", "sum"),
                                      hdelta("serve.batch_size", "count"))
    hits = _delta(k1, k0, "serve.kernel_cache.hits")
    misses = _delta(k1, k0, "serve.kernel_cache.misses")
    m["serve.kernel_cache_hit_ratio"] = _div(hits, hits + misses)
    m["core.batch.step_s"] = _div(driver.total("core.batch.step"),
                                  driver.count("core.batch.step"))
    m["core.batch.scenarios_evicted"] = float(
        sum(1 for r in reqs if r.status != "ok"))


def _setup(m: dict, lanes: list[tracing.Lane], import_s: float) -> None:
    """Set-up layers: everything before the end of the first operation."""
    driver = lanes[0]
    end = driver.ops[0][2]
    first = driver.ops[0][2] - driver.ops[0][1]
    pre = driver.window(float("-inf"), driver.ops[0][1])
    # Rank processes compile their kernels while the driver waits in the
    # solver constructor; the slowest rank is on the set-up path.
    codegen = [l.window(float("-inf"), end).total("codegen.make_kernel_system")
               for l in lanes]
    m["setup.import_s"] = import_s
    m["setup.codegen_s"] = codegen[0] + max(codegen[1:], default=0.0)
    m["setup.spawn_s"] = pre.own("core.parallel.init")
    m["setup.initial_refine_s"] = pre.own("mesh.amr.initial_refine")
    m["setup.first_step_s"] = first


def per_layer(w, c0: dict, c1: dict, lo: float, hi: float, op_s, import_s):
    """Return ``(metrics, lanes, residual spans)`` for one traced run."""
    lanes = _lanes(w)
    m = {name: 0.0 for name in NAMES}
    _setup(m, lanes, import_s)
    win = [lane.window(lo, hi) for lane in lanes]
    compute = win[1:] if len(win) > 1 else win[:1]
    _kernels(m, compute)
    steps = len(op_s)
    # Each workload's counters() says which layers it exports.
    if "ranks" in c0:
        _parallel(m, w, win[0], c0["ranks"], c1["ranks"], steps)
    if "metrics" in c0:
        _con2prim(m, [(c0["metrics"], c1["metrics"])], steps)
    if "steps" in c0:
        _amr(m, w, c0, c1, op_s)
    if "service" in c0:
        _serve(m, w, win[0], c0, c1)
    m["trace.overhead_frac"] = tracing.overhead_frac(
        [o for o in lanes[0].ops if lo <= o[1] < hi])
    return m, lanes, _residuals(compute)


def _residuals(lanes: list[tracing.Lane]) -> list[tuple[float, float]]:
    """One (start, seconds) residual per traced step: the own time of the
    step and of the spans nested in it that no named child covers."""
    out = []
    for lane in lanes:
        steps = [(s[1], s[2]) for s in lane.spans if s[0] in STEP_SPANS]
        for start, end in steps:
            own = sum(o for s, o in zip(lane.spans, lane.self_s)
                      if s[0] in CONTAINER_SPANS and start <= s[1] < end)
            out.append((start, own))
    return out
