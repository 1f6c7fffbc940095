"""One benchmark run of one workload, in a fresh interpreter.

    python3 perfbench/child.py --workload NAME --seed N --seconds S \
        --trace 0|1 --role main|setup --t0 EPOCH --workdir DIR [--tiny]

``--t0`` is the wall-clock time at which the parent launched this
interpreter; set-up time runs from there to the end of the first
operation, and is followed by a host-speed reference timing
(``calib.py``).  With ``--role setup`` the run stops there.  Otherwise it
measures operations for ``--seconds`` and on to the end of the current run
of the problem, with a reference timing before
each operation and after the last, leaves the program (the tail steps
the oracle replays, worker shutdown), reads peak memory, runs the oracle,
and prints one JSON object as its last line of output.  Each operation's
timings are scaled to nominal host speed by the reference timings that
bracket it; the raw wall-clock figures are reported too.

Spawned worker processes re-import this file as their main module; when
the run is traced that import installs the span wrappers in the worker.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

import calib
import tracing

if __name__ != "__main__":
    tracing.install_from_env()


def _quantile(values, q: float) -> float:
    import numpy as np

    return float(np.quantile(np.asarray(values, dtype=float), q))


def _peak_rss_mb() -> float:
    """Peak resident memory of this process plus its largest worker
    (workers have been joined, so they count as waited-for children)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def run(args) -> dict:
    from workloads import WORKLOADS

    import_s = time.time() - args.t0
    cls = WORKLOADS[args.workload]
    if args.trace:
        # Set before any worker is spawned: workers read it on import.
        os.environ[tracing.ENV] = str(cls.trace_block)
        tracing.install(cls.trace_block)
    w = cls(args.seed, args.tiny, Path(args.workdir))
    try:
        return _measure(args, w, import_s)
    except BaseException:
        w.close()
        raise


def _measure(args, w, import_s: float) -> dict:
    w.build()
    w.first_op()
    setup_s = time.time() - args.t0
    out = {"setup_s": setup_s, "import_s": import_s,
           "setup_ref_s": calib.reference_s(calib.SETUP_REPS)}
    if args.role == "setup":
        w.close()
        return out

    c0 = w.counters()
    # The window is the time spent in operations, at least ``--seconds``
    # and up to the end of a run of the problem; restarts between runs
    # (``prepare``) and reference timings are not part of it.  ``lat_ranges[i]`` indexes the latencies operation i recorded.
    op_s, zones, refs, lat_ranges = [], [], [], []
    lo = time.perf_counter()
    while sum(op_s) < args.seconds or not w.run_finished():
        w.prepare()
        refs.append(calib.reference_s(w.calib_reps))
        zu, n_lat = w.zone_updates, len(w.latencies)
        a = time.perf_counter()
        w.op()
        op_s.append(time.perf_counter() - a)
        zones.append(w.zone_updates - zu)
        lat_ranges.append((n_lat, len(w.latencies)))
    hi = time.perf_counter()
    refs.append(calib.reference_s(w.calib_reps))
    c1 = w.counters()
    if tracing.TRACER is not None:
        tracing.TRACER.active = False
    w.finish()
    rss_mb = _peak_rss_mb()
    correct, detail = w.oracle()

    import cffi
    import numpy
    import sympy

    scales = [calib.scale(b, a) for b, a in zip(refs, refs[1:])]
    if w.latencies:
        lat = [w.latencies[a:b] for a, b in lat_ranges]
    else:
        lat = [[s] for s in op_s]
    norm_lat = [x * f for xs, f in zip(lat, scales) for x in xs]
    wall_lat = [x for xs in lat for x in xs]
    rates = [z / s for z, s in zip(zones, op_s)]
    attempted = len(norm_lat)
    failed = attempted if not correct else w.failed_ops
    out.update({
        "correct": bool(correct),
        "detail": detail,
        "attempted": attempted,
        "failed": failed,
        "fused_active": bool(w.fused_active()),
        "metrics": {
            # Median of per-operation rates: a burst of host contention
            # moves a few operations, not the median.
            "zone_updates_per_s": _quantile(
                [r / f for r, f in zip(rates, scales)], 0.5),
            "op_s_p50": _quantile(norm_lat, 0.5),
            "op_s_p90": _quantile(norm_lat, 0.9),
            "peak_rss_mb": rss_mb,
        },
        "wall": {
            "zone_updates_per_s": _quantile(rates, 0.5),
            "op_s_p50": _quantile(wall_lat, 0.5),
            "op_s_p90": _quantile(wall_lat, 0.9),
            "reference_s_p50": _quantile(refs, 0.5),
        },
        "ops": len(op_s),
        # raw per-operation samples, kept in the result file only
        "samples": {"op_s": op_s, "reference_s": refs, "latencies_s": lat},
        "versions": {"numpy": numpy.__version__, "cffi": cffi.__version__,
                     "sympy": sympy.__version__},
    })
    if args.trace:
        import layers

        out["layers"], lanes, residuals = layers.per_layer(
            w, c0, c1, lo, hi, op_s, import_s
        )
        path = Path(args.workdir) / f"trace-{args.workload}-{args.seed}.json"
        tracing.save_trace(lanes, residuals, path)
        out["chrome_trace"] = str(path)
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--role", choices=("main", "setup"), default="main")
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--workdir", required=True)
    p.add_argument("--tiny", action="store_true")
    args = p.parse_args(argv)
    try:
        out = run(args)
    except Exception as exc:  # report, never hang the parent
        traceback.print_exc()
        out = {"error": f"{type(exc).__name__}: {exc}"}
    print(json.dumps(out))
    sys.stdout.flush()
    return 0 if "error" not in out else 1


if __name__ == "__main__":
    sys.exit(main())
