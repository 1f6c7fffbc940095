"""Compiled C kernel target: cffi build, on-disk artifact cache, fallback.

The ``cext`` target turns the generated C module of
:meth:`~repro.codegen.generator.KernelGenerator.generate_c_module` into a
real shared library via cffi.  Three layers of caching keep rebuilds rare
and *correct*:

1. an in-process handle map, keyed by the artifact name;
2. an on-disk artifact cache (``$REPRO_CEXT_CACHE``, default
   ``~/.cache/repro/cext``) whose file names embed a SHA-256 over the
   **generated C source + cdef declarations + compile flags + toolchain
   fingerprint** — so editing ``symbols.py``/``generator.py``, changing
   :data:`COMPILE_FLAGS` or upgrading the compiler can never serve a stale
   binary;
3. the cffi build itself, executed in a private temp directory and
   installed into the cache with an atomic :func:`os.replace`, so
   concurrent worker processes racing to build the same module all end up
   importing one winner.

Everything degrades gracefully: missing cffi, a missing C compiler, a
compiler that rejects :data:`COMPILE_FLAGS`, or ``REPRO_CEXT_DISABLE=1``
raise :class:`~repro.utils.errors.CodegenError` here, which
:func:`repro.codegen.system.make_kernel_system` turns into a logged
fallback to the ``flat`` target.
"""

from __future__ import annotations

import hashlib
import importlib.util
import os
import shutil
import subprocess
import sys
import sysconfig
import tempfile
from pathlib import Path

import numpy as np

from ..utils.errors import CodegenError
from ..utils.logging import get_logger
from .generator import CON2PRIM_KERNEL, KernelGenerator

_log = get_logger("codegen.cext")

#: Set to any non-empty value to force the no-toolchain fallback path.
DISABLE_ENV = "REPRO_CEXT_DISABLE"
#: Set to any non-empty value to disable only the fused stencil module —
#: the pointwise kernels keep compiling, exercising the per-kernel
#: fallback (compiled algebra + interpreted face-flux sweep).
STENCIL_DISABLE_ENV = "REPRO_CEXT_STENCIL_DISABLE"
#: Overrides the on-disk artifact cache directory.
CACHE_DIR_ENV = "REPRO_CEXT_CACHE"

#: The one set of compile flags every artifact is built with (and keyed
#: on).  ``-ffp-contract=off`` forbids FMA contraction, which is what keeps
#: the compiled kernels bit-identical to the interpreted ``flat`` target;
#: ``-fno-math-errno`` lets ``sqrt`` compile to one instruction (it is
#: correctly rounded either way) and be hoisted out of loops.  Nothing
#: here may reassociate or approximate: no fast-math, no ``-march``.
COMPILE_FLAGS = ("-O2", "-ffp-contract=off", "-fno-math-errno")

#: loaded compiled modules, keyed by artifact name (name embeds the hash)
_modules: dict[str, object] = {}

#: number of actual cffi compilations this process performed (test hook)
build_count = 0

_cc_version: str | None = None


def cext_disabled() -> bool:
    return bool(os.environ.get(DISABLE_ENV))


def _compiler_version(cc: str) -> str:
    """First line of ``$CC --version``, memoized; 'unknown' when unprobeable."""
    global _cc_version
    if _cc_version is None:
        try:
            out = subprocess.run(
                [cc.split()[0], "--version"],
                capture_output=True, text=True, timeout=10, check=False,
            )
            _cc_version = (out.stdout or "unknown").splitlines()[0].strip()
        except Exception:
            _cc_version = "unknown"
    return _cc_version


def toolchain_fingerprint() -> str:
    """Identity of the compiler stack, baked into every artifact key.

    Raises :class:`CodegenError` when cffi is missing — without it there
    is no toolchain to fingerprint.
    """
    try:
        import cffi
    except ImportError as exc:  # pragma: no cover - image ships cffi
        raise CodegenError(f"cffi is not installed: {exc}") from exc
    cc = sysconfig.get_config_var("CC") or "cc"
    return "|".join(
        [
            f"cffi={cffi.__version__}",
            f"python={sys.version_info.major}.{sys.version_info.minor}",
            f"cc={_compiler_version(cc)}",
            f"ext={sysconfig.get_config_var('EXT_SUFFIX')}",
        ]
    )


def cache_dir() -> Path:
    """The on-disk artifact cache directory (created on first use)."""
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        d = Path(env)
    else:
        base = os.environ.get("XDG_CACHE_HOME") or (Path.home() / ".cache")
        d = Path(base) / "repro" / "cext"
    d.mkdir(parents=True, exist_ok=True)
    return d


def _artifact_digest(source: str, cdef: str) -> str:
    """Content key of one artifact: source, declarations, compile flags
    and toolchain fingerprint."""
    return hashlib.sha256(
        "\0".join(
            [source, cdef, " ".join(COMPILE_FLAGS), toolchain_fingerprint()]
        ).encode()
    ).hexdigest()[:16]


def module_spec(ndim: int, kinds_axes=None) -> tuple[str, str, str]:
    """(artifact name, C source, cdef declarations) for one ndim's module.

    The artifact name embeds a SHA-256 over source + declarations +
    compile flags + toolchain fingerprint: any change to the symbolic
    spec, the emitter, the flags or the compiler stack changes the name
    and forces a rebuild.
    """
    gen = KernelGenerator(ndim)
    source = gen.generate_c_module(kinds_axes)
    cdef = gen.c_declarations(kinds_axes)
    name = f"_repro_cext_{ndim}d_{_artifact_digest(source, cdef)}"
    return name, source, cdef


def artifact_path(name: str) -> Path:
    suffix = sysconfig.get_config_var("EXT_SUFFIX") or ".so"
    return cache_dir() / f"{name}{suffix}"


def _compile_once(name: str, source: str, cdef: str, tmpdir: str, flags):
    import cffi

    builder = cffi.FFI()
    builder.cdef(cdef)
    builder.set_source(name, source, extra_compile_args=list(flags))
    return builder.compile(tmpdir=tmpdir, verbose=False)


def _build(name: str, source: str, cdef: str, dest: Path) -> None:
    """Compile the module in a private temp dir, install atomically.

    There is deliberately no retry without :data:`COMPILE_FLAGS`: an
    artifact built without ``-ffp-contract=off`` is not bitwise equal to
    ``flat``, and the artifact name promises that it is.  A toolchain that
    rejects the flags raises :class:`CodegenError` (the logged fallback).
    """
    global build_count
    tmpdir = tempfile.mkdtemp(prefix="repro-cext-build-", dir=str(dest.parent))
    try:
        built = _compile_once(name, source, cdef, tmpdir, COMPILE_FLAGS)
        build_count += 1
        os.replace(built, dest)
    except CodegenError:
        raise
    except Exception as exc:
        raise CodegenError(f"cext build failed: {exc}") from exc
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)


def _import_artifact(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    if spec is None or spec.loader is None:  # pragma: no cover - loader guard
        raise CodegenError(f"cannot import compiled artifact {path}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _load_spec(name: str, source: str, cdef: str):
    """Load (building if needed) one compiled module by its content spec."""
    module = _modules.get(name)
    if module is None:
        path = artifact_path(name)
        if not path.exists():
            _log.info("building cext kernel module %s", name)
            _build(name, source, cdef, path)
        else:
            # LRU bookkeeping for `repro cache`: a served artifact is a
            # recently-used artifact, even across processes.
            try:
                os.utime(path)
            except OSError:
                pass
        try:
            module = _import_artifact(name, path)
        except Exception as exc:
            # A truncated or corrupt cached artifact (torn copy, partial
            # disk, bit rot) fails at dlopen: evict it and rebuild once
            # instead of crashing — same graceful posture as the
            # no-toolchain fallback.
            _log.warning(
                "cached cext artifact %s unloadable (%s); evicting and "
                "rebuilding", path, exc,
            )
            try:
                path.unlink()
            except OSError:
                pass
            _build(name, source, cdef, path)
            module = _import_artifact(name, path)
        _modules[name] = module
    return module.ffi, module.lib


def load_cext_module(ndim: int, kinds_axes=None):
    """(ffi, lib) of the compiled kernel module for *ndim*.

    Builds (and disk-caches) on first use; raises
    :class:`~repro.utils.errors.CodegenError` when the target is disabled
    or no toolchain is available.
    """
    if cext_disabled():
        raise CodegenError(f"cext target disabled via {DISABLE_ENV}=1")
    return _load_spec(*module_spec(ndim, kinds_axes))


def stencil_module_spec(ndim: int) -> tuple[str, str, str]:
    """(artifact name, C source, cdef) of the fused stencil module.

    A separate artifact from the pointwise module: the two compile (and
    fail) independently, which is what makes the per-kernel fallback —
    compiled algebra with an interpreted face-flux sweep — possible.
    """
    gen = KernelGenerator(ndim)
    source = gen.generate_c_stencil_module()
    cdef = gen.c_stencil_declarations()
    name = f"_repro_cext_st_{ndim}d_{_artifact_digest(source, cdef)}"
    return name, source, cdef


def load_cext_stencil_module(ndim: int):
    """(ffi, lib) of the fused stencil module for *ndim*.

    Raises :class:`~repro.utils.errors.CodegenError` when the cext target
    is disabled outright, when only the stencil module is disabled
    (``REPRO_CEXT_STENCIL_DISABLE=1``), or when the build fails.
    """
    if cext_disabled():
        raise CodegenError(f"cext target disabled via {DISABLE_ENV}=1")
    if os.environ.get(STENCIL_DISABLE_ENV):
        raise CodegenError(
            f"fused stencil kernels disabled via {STENCIL_DISABLE_ENV}=1"
        )
    return _load_spec(*stencil_module_spec(ndim))


def clear_modules() -> None:
    """Drop in-process module handles (test hook; disk artifacts remain)."""
    _modules.clear()


def cache_report() -> dict:
    """Inventory of the on-disk artifact cache, oldest (LRU) first.

    Each entry carries name, size, and mtime; mtime doubles as the
    recency signal (:func:`_load_spec` touches artifacts it serves).
    """
    d = cache_dir()
    artifacts = []
    for p in d.iterdir():
        if not p.is_file():
            continue
        try:
            st = p.stat()
        except OSError:
            continue
        artifacts.append({"name": p.name, "bytes": st.st_size, "mtime": st.st_mtime})
    artifacts.sort(key=lambda a: (a["mtime"], a["name"]))
    return {
        "dir": str(d),
        "n_artifacts": len(artifacts),
        "total_bytes": sum(a["bytes"] for a in artifacts),
        "artifacts": artifacts,
    }


def prune_cache(max_bytes: int) -> list[str]:
    """Evict least-recently-used artifacts until the cache fits *max_bytes*.

    Returns the evicted file names (oldest first). Artifacts that vanish
    or resist deletion mid-prune are skipped, not fatal — concurrent
    builders may be racing us.
    """
    if max_bytes < 0:
        raise ValueError(f"max_bytes must be >= 0, got {max_bytes}")
    report = cache_report()
    total = report["total_bytes"]
    removed: list[str] = []
    d = Path(report["dir"])
    for entry in report["artifacts"]:
        if total <= max_bytes:
            break
        try:
            (d / entry["name"]).unlink()
        except OSError:
            continue
        total -= entry["bytes"]
        removed.append(entry["name"])
    if removed:
        _log.info(
            "pruned %d cext artifact(s) (%d bytes remain, bound %d)",
            len(removed), total, max_bytes,
        )
    return removed


def cext_available(ndim: int = 1) -> bool:
    """Whether the compiled target can actually be loaded here."""
    try:
        load_cext_module(ndim)
        return True
    except CodegenError:
        return False


# -- Python-side kernel drivers ---------------------------------------------


def _in_buf(ffi, arr, keepalive):
    arr = np.ascontiguousarray(arr, dtype=np.float64)
    keepalive.append(arr)
    return ffi.from_buffer("double*", arr)


def _out_buf(ffi, arr, ctype="double*"):
    if not arr.flags.c_contiguous:
        raise CodegenError("cext output buffers must be C-contiguous")
    return ffi.from_buffer(ctype, arr, require_writable=True)


def load_cext_kernel(kind: str, ndim: int, axis: int = 0):
    """A Python callable with the flat/SoA calling convention.

    The returned function takes ``(*input_rows, *output_rows, gamma)`` flat
    float64 arrays exactly like a ``target="flat"`` kernel, so
    :func:`repro.codegen.cache.run_flat_kernel` can drive it unchanged.
    """
    ffi, lib = load_cext_module(ndim)
    gen = KernelGenerator(ndim)
    fn = getattr(lib, gen.kernel_name(kind, axis, "cext"))
    n_in = len(gen.symbols.input_names())

    def kernel(*args):
        *arrays, gamma = args
        ins, outs = arrays[:n_in], arrays[n_in:]
        keep: list = []
        cins = [_in_buf(ffi, a, keep) for a in ins]
        couts = [_out_buf(ffi, o) for o in outs]
        fn(ins[0].size, *cins, *couts, float(gamma))
        return outs[0] if len(outs) == 1 else tuple(outs)

    return kernel


def run_con2prim_newton(
    ffi,
    lib,
    D: np.ndarray,
    S2: np.ndarray,
    tau: np.ndarray,
    p: np.ndarray,
    p_lo: np.ndarray,
    *,
    gamma: float,
    tol: float,
    p_floor: float,
    max_newton: int,
    damping: float,
):
    """Run the fused Newton kernel; returns (converged mask, max iters).

    *p* is updated in place (it must be a contiguous scratch buffer, which
    is what :func:`repro.physics.con2prim.con_to_prim` passes).
    """
    n = int(D.size)
    conv = np.zeros(n, dtype=np.uint8)
    iters = np.empty(n, dtype=np.int32)
    keep: list = []
    it_max = getattr(lib, CON2PRIM_KERNEL)(
        n,
        _in_buf(ffi, D, keep),
        _in_buf(ffi, S2, keep),
        _in_buf(ffi, tau, keep),
        _out_buf(ffi, p),
        _in_buf(ffi, p_lo, keep),
        _out_buf(ffi, conv, "unsigned char*"),
        _out_buf(ffi, iters, "int*"),
        float(gamma),
        float(tol),
        float(p_floor),
        int(max_newton),
        float(damping),
    )
    return conv.view(bool), int(it_max)


def run_face_flux(
    ffi,
    fn,
    prim: np.ndarray,
    row_offsets: np.ndarray,
    j0: int,
    n_faces: int,
    out: np.ndarray,
    *,
    axis_stride: int,
    gamma: float,
    vmax2: float,
    rho_atmo: float,
    p_atmo: float,
    recon_id: int,
    limiter_id: int,
    riemann_id: int,
) -> np.ndarray:
    """Run one fused face-flux sweep; returns the sanitize counters.

    *prim* is the full ghosted primitive array (``(nvars, ...)``,
    C-contiguous); *out* receives the fluxes as ``(nvars, n_rows,
    n_faces)``.  The returned int64 pair is ``[velocity_rescaled,
    floored]`` — the exact totals the interpreted sanitize stage counts.
    """
    if not prim.flags.c_contiguous:
        raise CodegenError("fused face_flux needs a C-contiguous prim array")
    counts = np.zeros(2, dtype=np.int64)
    keep: list = []
    fn(
        _in_buf(ffi, prim, keep),
        int(prim.strides[0] // prim.itemsize),
        int(axis_stride),
        ffi.from_buffer("long*", row_offsets),
        int(row_offsets.size),
        int(j0),
        int(n_faces),
        _out_buf(ffi, out),
        float(gamma),
        float(vmax2),
        float(rho_atmo),
        float(p_atmo),
        int(recon_id),
        int(limiter_id),
        int(riemann_id),
        _out_buf(ffi, counts, "long*"),
    )
    return counts
