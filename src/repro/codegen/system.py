"""Drop-in SRHD systems backed by generated kernels.

:class:`GeneratedSRHDSystem` has the same interface as
:class:`~repro.physics.srhd.SRHDSystem` but evaluates ``prim_to_con``,
``flux``, and ``char_speeds`` through the SymPy-generated kernels — i.e.
the generated code runs in the *production solver path*, not just in
micro-benchmarks.  It serves both interpreted targets: ``numpy`` (stacked
arrays) and ``flat`` (SoA marshalling, the accelerator rehearsal path).

:class:`CompiledSRHDSystem` is the same idea one step further: the
kernels are the cffi-compiled C module of :mod:`repro.codegen.cext`,
including the fused conservative-to-primitive Newton loop, which
:func:`~repro.physics.con2prim.con_to_prim` picks up through the
``c2p_newton`` hook.

:func:`make_kernel_system` is the selection point the solver stack calls
(via ``SolverConfig.kernel_target``): it resolves a target name to a
system, falling back from ``cext`` to ``flat`` with a logged warning when
no C toolchain is available.
"""

from __future__ import annotations

import numpy as np

from ..core.workspace import scratch_buf
from ..eos.ideal import IdealGasEOS
from ..physics.srhd import SRHDSystem
from ..utils.errors import CodegenError
from ..utils.logging import get_logger
from .cache import load_kernel, run_flat_kernel
from .generator import (
    STENCIL_LIMITER_IDS,
    STENCIL_RECON_IDS,
    STENCIL_RIEMANN_IDS,
    KernelGenerator,
)

_log = get_logger("codegen.system")


def stencil_scheme_ids(reconstruction, riemann) -> tuple[int, int, int] | None:
    """Dispatch ids ``(recon, limiter, riemann)`` for a scheme combo.

    Returns ``None`` when the combo has no compiled form (higher-order
    reconstructions, exotic solvers) — the pipeline then keeps the
    interpreted face-flux path for that scheme only.
    """
    from ..reconstruct.pc import PiecewiseConstant
    from ..reconstruct.tvd import TVDSlope

    if type(reconstruction) is PiecewiseConstant:
        recon_id, limiter_id = STENCIL_RECON_IDS["pc"], 0
    elif (
        type(reconstruction) is TVDSlope
        and reconstruction.limiter_name in STENCIL_LIMITER_IDS
    ):
        recon_id = STENCIL_RECON_IDS["tvd"]
        limiter_id = STENCIL_LIMITER_IDS[reconstruction.limiter_name]
    else:
        return None
    riemann_id = STENCIL_RIEMANN_IDS.get(getattr(riemann, "name", None))
    if riemann_id is None:
        return None
    return recon_id, limiter_id, riemann_id


class GeneratedSRHDSystem(SRHDSystem):
    """SRHD system whose algebraic kernels are generated from SymPy.

    *target* selects the interpreted emission flavour: ``numpy`` (stacked
    state arrays, the default) or ``flat`` (SoA marshalling through
    :func:`~repro.codegen.cache.run_flat_kernel`).
    """

    def __init__(self, gamma: float = 5.0 / 3.0, ndim: int = 1,
                 target: str = "numpy"):
        if target not in ("numpy", "flat"):
            raise CodegenError(
                f"GeneratedSRHDSystem target must be 'numpy' or 'flat', "
                f"got {target!r}"
            )
        super().__init__(IdealGasEOS(gamma=gamma), ndim)
        self.gamma = float(gamma)
        self.target = target
        self._k_prim_to_con = load_kernel("prim_to_con", ndim, 0, target)
        self._k_flux = [
            load_kernel("flux", ndim, axis, target) for axis in range(ndim)
        ]
        self._k_char = [
            load_kernel("char_speeds", ndim, axis, target) for axis in range(ndim)
        ]

    def prim_to_con(self, prim: np.ndarray, out=None, scratch=None, tag="p2c") -> np.ndarray:
        # Keep the reference implementation's admissibility guard.
        self.lorentz_factor(prim)
        if self.target == "numpy":
            dst = np.empty_like(prim) if out is None else out
            return self._k_prim_to_con(prim, dst, self.gamma)
        got = run_flat_kernel(self._k_prim_to_con, prim, self.nvars, self.gamma)
        if out is None:
            return got
        np.copyto(out, got)
        return out

    def flux(self, prim: np.ndarray, cons: np.ndarray, axis: int = 0, out=None) -> np.ndarray:
        # The generated flux consumes primitives only; *cons* is accepted
        # for interface compatibility.
        if self.target == "numpy":
            dst = np.empty_like(prim) if out is None else out
            return self._k_flux[axis](prim, dst, self.gamma)
        got = run_flat_kernel(self._k_flux[axis], prim, self.nvars, self.gamma)
        if out is None:
            return got
        np.copyto(out, got)
        return out

    def char_speeds(self, prim: np.ndarray, axis: int = 0, out=None, scratch=None, tag="cs"):
        if self.target == "numpy":
            lam = scratch_buf(scratch, (tag, "lam2"), (2,) + prim.shape[1:])
            self._k_char[axis](prim, lam, self.gamma)
        else:
            lam = run_flat_kernel(self._k_char[axis], prim, 2, self.gamma)
        if out is None:
            return lam[0], lam[1]
        np.copyto(out[0], lam[0])
        np.copyto(out[1], lam[1])
        return out[0], out[1]

    def __repr__(self):
        return (
            f"GeneratedSRHDSystem(gamma={self.gamma}, ndim={self.ndim}, "
            f"target={self.target!r})"
        )


class CompiledSRHDSystem(SRHDSystem):
    """SRHD system backed by the cffi-compiled C kernels (``cext`` target).

    Construction raises :class:`~repro.utils.errors.CodegenError` when the
    compiled module cannot be built or loaded — callers that want the
    graceful fallback go through :func:`make_kernel_system`.
    """

    target = "cext"

    def __init__(self, gamma: float = 5.0 / 3.0, ndim: int = 1):
        super().__init__(IdealGasEOS(gamma=gamma), ndim)
        self.gamma = float(gamma)
        from .cext import load_cext_module

        self._ffi, self._lib = load_cext_module(ndim)
        gen = KernelGenerator(ndim)
        self._c_prim_to_con = getattr(
            self._lib, gen.kernel_name("prim_to_con", 0, "cext")
        )
        self._c_flux = [
            getattr(self._lib, gen.kernel_name("flux", ax, "cext"))
            for ax in range(ndim)
        ]
        self._c_char = [
            getattr(self._lib, gen.kernel_name("char_speeds", ax, "cext"))
            for ax in range(ndim)
        ]
        # The fused stencil module is a separate artifact with its own
        # build: a failure here degrades per kernel (compiled algebra +
        # interpreted face-flux sweep) instead of dropping the whole
        # target back to 'flat'.
        from .cext import load_cext_stencil_module

        self._st_ffi = None
        self._c_face_flux = None
        try:
            self._st_ffi, st_lib = load_cext_stencil_module(ndim)
            self._c_face_flux = [
                getattr(st_lib, gen.stencil_kernel_name(ax))
                for ax in range(ndim)
            ]
        except CodegenError as exc:
            _log.warning(
                "compiled stencil kernels unavailable (%s); face_flux "
                "falls back to the interpreted path (pointwise cext "
                "kernels stay compiled)", exc,
            )

    # -- marshalling ---------------------------------------------------------

    def _run(self, fn, in_rows, out_rows):
        ffi = self._ffi
        keep = []
        cins = []
        for a in in_rows:
            a = np.ascontiguousarray(a, dtype=np.float64)
            keep.append(a)
            cins.append(ffi.from_buffer("double*", a))
        couts = []
        copyback = []
        for o in out_rows:
            if o.flags.c_contiguous:
                couts.append(ffi.from_buffer("double*", o, require_writable=True))
            else:
                tmp = np.empty(o.shape, dtype=np.float64)
                copyback.append((o, tmp))
                couts.append(ffi.from_buffer("double*", tmp, require_writable=True))
        fn(int(in_rows[0].size), *cins, *couts, self.gamma)
        for dst, tmp in copyback:
            np.copyto(dst, tmp)

    def prim_to_con(self, prim: np.ndarray, out=None, scratch=None, tag="p2c") -> np.ndarray:
        # Keep the reference implementation's admissibility guard.
        self.lorentz_factor(prim)
        dst = np.empty_like(prim) if out is None else out
        self._run(
            self._c_prim_to_con,
            [prim[i] for i in range(self.nvars)],
            [dst[i] for i in range(self.nvars)],
        )
        return dst

    def flux(self, prim: np.ndarray, cons: np.ndarray, axis: int = 0, out=None) -> np.ndarray:
        dst = np.empty_like(prim) if out is None else out
        self._run(
            self._c_flux[axis],
            [prim[i] for i in range(self.nvars)],
            [dst[i] for i in range(self.nvars)],
        )
        return dst

    def char_speeds(self, prim: np.ndarray, axis: int = 0, out=None, scratch=None, tag="cs"):
        lam = scratch_buf(scratch, (tag, "lam2"), (2,) + prim.shape[1:])
        self._run(
            self._c_char[axis],
            [prim[i] for i in range(self.nvars)],
            [lam[0], lam[1]],
        )
        if out is None:
            return lam[0], lam[1]
        np.copyto(out[0], lam[0])
        np.copyto(out[1], lam[1])
        return out[0], out[1]

    def c2p_newton(self, D, S2, tau, p, p_lo, *, tol, p_floor, max_newton, damping):
        """Fused Newton phase hook consumed by ``con_to_prim``.

        Returns ``(converged mask, max iteration count)``; *p* is updated
        in place, exactly like the vectorized Python iteration it replaces.
        """
        from .cext import run_con2prim_newton

        return run_con2prim_newton(
            self._ffi, self._lib, D, S2, tau, p, p_lo,
            gamma=self.gamma, tol=tol, p_floor=p_floor,
            max_newton=max_newton, damping=damping,
        )

    @property
    def has_fused_stencils(self) -> bool:
        """Whether the compiled face-flux sweep is available."""
        return self._c_face_flux is not None

    def face_flux(
        self,
        prim: np.ndarray,
        axis: int,
        row_offsets: np.ndarray,
        j0: int,
        n_faces: int,
        out: np.ndarray,
        *,
        ids: tuple[int, int, int],
        vmax2: float,
        rho_atmo: float,
        p_atmo: float,
        axis_stride: int,
    ) -> np.ndarray:
        """One fused reconstruction+Riemann sweep along *axis*.

        Writes the face fluxes into *out* (``(nvars, n_rows, n_faces)``,
        C-contiguous) and returns the int64 sanitize counters
        ``[velocity_rescaled, floored]``. *ids* comes from
        :func:`stencil_scheme_ids`.
        """
        from .cext import run_face_flux

        recon_id, limiter_id, riemann_id = ids
        return run_face_flux(
            self._st_ffi,
            self._c_face_flux[axis],
            prim,
            row_offsets,
            j0,
            n_faces,
            out,
            axis_stride=axis_stride,
            gamma=self.gamma,
            vmax2=vmax2,
            rho_atmo=rho_atmo,
            p_atmo=p_atmo,
            recon_id=recon_id,
            limiter_id=limiter_id,
            riemann_id=riemann_id,
        )

    def __repr__(self):
        return f"CompiledSRHDSystem(gamma={self.gamma}, ndim={self.ndim})"


def make_kernel_system(system: SRHDSystem, target: str) -> SRHDSystem:
    """Resolve ``SolverConfig.kernel_target`` to the system to run with.

    ``numpy`` returns *system* unchanged — the handwritten reference path,
    which the golden-stream fixtures pin bit-for-bit.  ``flat`` and
    ``cext`` require the plain :class:`SRHDSystem` + ideal-gas combination
    the generator specializes for; anything else (tracer systems, exotic
    EOS) keeps the handwritten kernels with a logged warning.  When the
    compiled target is unavailable (no cffi, no compiler,
    ``REPRO_CEXT_DISABLE=1``), ``cext`` falls back to ``flat`` with a
    logged warning rather than failing the run.  A system already resolved
    to *target* (for example by the batch service's kernel cache) is
    returned unchanged.
    """
    if target in (None, "numpy"):
        return system
    if getattr(system, "target", None) == target:
        return system
    if type(system) is not SRHDSystem or not isinstance(system.eos, IdealGasEOS):
        _log.warning(
            "kernel_target=%r needs a plain SRHDSystem with an ideal-gas "
            "EOS (got %r); keeping the handwritten kernels",
            target, system,
        )
        return system
    gamma, ndim = system.eos.gamma, system.ndim
    if target == "flat":
        return GeneratedSRHDSystem(gamma=gamma, ndim=ndim, target="flat")
    if target == "cext":
        try:
            return CompiledSRHDSystem(gamma=gamma, ndim=ndim)
        except CodegenError as exc:
            _log.warning(
                "cext kernels unavailable (%s); falling back to "
                "kernel_target='flat'", exc,
            )
            return GeneratedSRHDSystem(gamma=gamma, ndim=ndim, target="flat")
    raise CodegenError(f"unknown kernel target {target!r}")
