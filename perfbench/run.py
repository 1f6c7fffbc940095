"""The repository benchmark: one workload, one seed, one JSON result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Workloads and metrics are listed
in ``BENCHMARK.json``; why each workload was chosen and which end-to-end
metric each per-layer metric should move are in ``perfbench/METRICS.md``.

Every run starts fresh interpreters (``perfbench/child.py``), so
per-process caches start cold, as they do for a user.  The on-disk cext
artifact cache is warmed first, untimed, in ``.bench_build/perfbench``.

``--trace 0`` runs the workload untraced and prints the end-to-end
metrics.  ``setup_s`` is the median over three interpreters: the measured
run plus two that stop after set-up.  Every timing is scaled to nominal
host speed by a reference loop timed next to it (``perfbench/calib.py``);
the raw wall-clock figures are in the environment line, and the raw
per-operation samples in the result file.  ``--trace 1`` runs one traced
interpreter and prints the per-layer metrics; its Chrome trace is written
to ``.bench_build/perfbench/trace-<workload>-<seed>.json``.

The last line of output is the result object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The line before it records the environment.
The exit code is non-zero, with no result, when the program cannot be
run at all (for example, no ``src/repro`` beside ``perfbench``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calib

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".bench_build" / "perfbench"
#: interpreters that measure set-up time in an untraced run
SETUP_RUNS = 3
#: a run must end within this many seconds (plus any first build)
BUDGET_S = 170.0

WARM = """
import json
from repro.codegen.system import CompiledSRHDSystem
from repro.utils.errors import CodegenError
try:
    fused = all(CompiledSRHDSystem(ndim=n).has_fused_stencils for n in (1, 2))
    print(json.dumps({"cext_available": True, "fused_stencils": fused}))
except CodegenError as exc:
    print(json.dumps({"cext_available": False, "fused_stencils": False,
                      "reason": str(exc)}))
"""


class RunError(Exception):
    """The program could not be run; no result is printed."""


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["REPRO_CEXT_CACHE"] = str(WORKDIR / "cext-cache")
    env.pop("PERFBENCH_TRACE", None)
    env.pop("REPRO_CEXT_DISABLE", None)
    env.pop("REPRO_CEXT_STENCIL_DISABLE", None)
    return env


def _run(cmd: list[str], timeout: float) -> str:
    """Run *cmd* in its own session; on timeout kill the whole group (the
    workers included) and wait for it."""
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=_env(), stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RunError(f"{cmd[1]} timed out after {timeout:.0f}s") from None
    if proc.returncode != 0 and not out.strip():
        raise RunError(f"{' '.join(cmd[:2])} failed:\n{err[-4000:]}")
    sys.stderr.write(err[-4000:] if proc.returncode else "")
    return out


def _last_json(out: str) -> dict:
    lines = [ln for ln in out.splitlines() if ln.strip()]
    if not lines:
        raise RunError("child printed nothing")
    return json.loads(lines[-1])


def _child(args, role: str, timeout: float) -> dict:
    """Run one interpreter; its set-up time is scaled by the reference
    timings taken just before it starts and just after its set-up."""
    ref = calib.reference_s(calib.SETUP_REPS)
    cmd = [
        sys.executable, str(HERE / "child.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--role", role, "--t0", repr(time.time()),
        "--workdir", str(WORKDIR),
    ] + (["--tiny"] if args.tiny else [])
    out = _last_json(_run(cmd, timeout))
    if "setup_s" in out:
        out["setup_scale"] = calib.scale(ref, out["setup_ref_s"])
    return out


def _tool_version(cmd: list[str]) -> str:
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return (out.stdout or out.stderr).splitlines()[0] if out.returncode == 0 \
        else "unavailable"


def environment(args, warm: dict, main: dict) -> dict:
    """Host and toolchain facts recorded next to every result."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown"
    if (ROOT / ".git").exists():
        commit = _tool_version(["git", "-C", str(ROOT), "rev-parse", "HEAD"])
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        **main["versions"],
        "gcc": _tool_version(["gcc", "--version"]),
        "git_commit": commit,
        "cext_available": warm["cext_available"],
        "fused_stencils_built": warm["fused_stencils"],
        "fused_stencils_active": main["fused_active"],
    }


def warm_cache() -> dict:
    """Build the cext artifacts once per program source tree, untimed.

    The marker is keyed by a hash of every program source file, so a
    changed program is warmed again before its first timed run.
    """
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    marker = WORKDIR / f"warm-{digest.hexdigest()[:16]}.json"
    if marker.is_file():
        return json.loads(marker.read_text())
    warm = _last_json(_run([sys.executable, "-c", WARM], 800))
    marker.write_text(json.dumps(warm))
    return warm


def benchmark_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def _failed(metrics: list[dict], error: str) -> tuple[dict, dict, None]:
    """The program raised: one failed operation, metrics read 0."""
    return {
        "correct": False, "attempted": 1, "failed": 1,
        "metrics": {m["name"]: {"value": 0.0, "unit": m["unit"]}
                    for m in metrics},
    }, {"error": error}, None


def measure(args) -> tuple[dict, dict, dict | None]:
    spec = benchmark_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        raise RunError(f"unknown workload {args.workload!r}; choose from {names}")
    if not (SRC / "repro" / "__init__.py").is_file():
        raise RunError(f"no program sources at {SRC / 'repro'}")
    WORKDIR.mkdir(parents=True, exist_ok=True)

    t_warm = time.monotonic()
    warm = warm_cache()
    deadline = time.monotonic() + BUDGET_S - min(time.monotonic() - t_warm, 5.0)

    key = "per_layer" if args.trace else "end_to_end"
    main = _child(args, "main", deadline - time.monotonic())
    if "error" in main:
        return _failed(spec[key], main["error"])
    if args.trace:
        values = dict(main["layers"])
    else:
        runs = [main]
        for _ in range(SETUP_RUNS - 1):
            probe = _child(args, "setup", deadline - time.monotonic())
            if "error" in probe:
                return _failed(spec[key], probe["error"])
            runs.append(probe)
        values = dict(main["metrics"], setup_s=statistics.median(
            r["setup_s"] * r["setup_scale"] for r in runs))
        main["wall"]["setup_s"] = statistics.median(r["setup_s"] for r in runs)
    units = {m["name"]: m["unit"] for m in spec[key]}
    if set(values) != set(units):
        raise RunError(
            f"metric names differ from BENCHMARK.json {key}: "
            f"{sorted(set(values) ^ set(units))}")
    result = {
        "correct": bool(main["correct"]),
        "attempted": int(main["attempted"]),
        "failed": int(main["failed"]),
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in spec[key]
        },
    }
    env = environment(args, warm, main)
    env["detail"] = main.get("detail", "")
    env["steps_or_rounds"] = main["ops"]
    env["wall"] = main["wall"]
    if args.trace:
        env["chrome_trace"] = main["chrome_trace"]
    return result, env, main.get("samples")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="smallest inputs (the benchmark's own tests)")
    args = p.parse_args(argv)
    try:
        result, env, samples = measure(args)
    except (RunError, OSError, ValueError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for name, m in result["metrics"].items():
        print(f"{name:40s} {m['value']:.6g} {m['unit']}")
    print(f"correct={result['correct']} attempted={result['attempted']} "
          f"failed={result['failed']}")
    out = WORKDIR / f"result-{args.workload}-{args.seed}-{args.trace}.json"
    out.write_text(json.dumps({"env": env, **result, "samples": samples}))
    print(json.dumps({"env": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
