"""Kernel source generation from the symbolic SRHD specification.

Three targets model the architectures of a heterogeneous node:

- ``numpy`` — the host CPU flavour: one function over a stacked state array
  ``prim[(nvars, ...)]``, vectorized whole-array expressions.
- ``flat`` — the accelerator flavour: structure-of-arrays signature (one
  flat 1-D array per variable, separate output arrays), mirroring how a
  CUDA kernel receives raw device pointers. On this substrate it still
  executes through NumPy, but it exercises the same generation path and
  data layout a GPU emitter uses.
- ``cext`` — genuinely compiled C: the same CSE'd expressions printed
  through SymPy's C99 printer into a per-cell loop with SoA pointer
  arguments, built into a shared library by :mod:`repro.codegen.cext`.
  The per-cell loop body is exactly the flat target's data layout, so the
  two differ only in who runs the loop (the C compiler vs. NumPy).

Common subexpression elimination (``sympy.cse``) is applied before
printing, exactly as production generators do to keep register pressure and
redundant transcendentals down.
"""

from __future__ import annotations

import sympy as sp
from sympy.printing.c import C99CodePrinter
from sympy.printing.numpy import NumPyPrinter

from ..utils.errors import CodegenError
from .symbols import SRHDSymbols

_TARGETS = ("numpy", "flat", "cext")

#: Runtime dispatch ids baked into the fused stencil kernels.  The ids are
#: part of the compiled ABI: they select the reconstruction family, the
#: slope limiter, and the Riemann solver *per call*, so one compiled
#: ``face_flux`` entry point per axis serves every supported scheme combo
#: (instead of compiling the full cross product into separate symbols).
STENCIL_RECON_IDS = {"pc": 0, "tvd": 1}
STENCIL_LIMITER_IDS = {"minmod": 0, "mc": 1, "vanleer": 2, "superbee": 3}
STENCIL_RIEMANN_IDS = {"llf": 0, "hll": 1, "hllc": 2}

#: Name of the fused conservative-to-primitive Newton kernel in the
#: compiled module (the one kernel not generated from the symbolic spec:
#: it is an iterative loop, not an expression list, so it is emitted from
#: a template that mirrors the vectorized Python iteration line by line).
CON2PRIM_KERNEL = "con2prim_newton_cext"

#: C template of the fused con2prim Newton loop.  Operation order matches
#: :func:`repro.physics.con2prim.con_to_prim`'s vectorized Newton phase
#: exactly (same clips, same damped step, same convergence test), so when
#: compiled without FP contraction the compiled iteration is bit-identical
#: to the NumPy one.  ``S2`` arrives precomputed, which keeps the kernel
#: ndim-independent.  Returns the largest per-cell iteration count.
_CON2PRIM_C = """\
long %(name)s(long n,
              const double* in_D, const double* in_S2, const double* in_tau,
              double* p, const double* p_lo,
              unsigned char* converged, int* iters,
              double gamma, double tol, double p_floor,
              int max_newton, double damping)
{
    long iters_max = 0;
    for (long i = 0; i < n; ++i) {
        const double D = in_D[i];
        const double S2 = in_S2[i];
        const double tau = in_tau[i];
        const double plo = p_lo[i];
        double pi = p[i];
        int conv = 0;
        int it = 0;
        for (it = 1; it <= max_newton; ++it) {
            const double Q = tau + D + pi;
            double v2 = S2 / (Q * Q);
            v2 = fmin(fmax(v2, 0.0), 1.0 - 1e-14);
            const double W = 1.0 / sqrt(1.0 - v2);
            const double rho = D / W;
            double eps = (Q * (1.0 - v2) - pi) / rho - 1.0;
            eps = fmax(eps, 0.0);
            const double f = (gamma - 1.0) * rho * eps - pi;
            if (fabs(f) <= tol * fmax(pi, p_floor)) { conv = 1; break; }
            const double epsc = fmax(eps, 1e-300);
            const double p_th = (gamma - 1.0) * rho * epsc;
            const double h = 1.0 + epsc + p_th / rho;
            double cs2 = gamma * p_th / (rho * h);
            cs2 = fmin(fmax(cs2, 0.0), 1.0 - 1e-12);
            const double dfdp = v2 * cs2 - 1.0;
            const double step = f / dfdp;
            pi = fmax(pi - damping * step, 0.5 * (pi + plo));
        }
        if (it > max_newton) it = max_newton;
        p[i] = pi;
        converged[i] = (unsigned char) conv;
        iters[i] = it;
        if (it > iters_max) iters_max = it;
    }
    return iters_max;
}
"""


#: C helpers shared by every fused stencil kernel.  Each limiter mirrors
#: the vectorized implementation in :mod:`repro.reconstruct.tvd` operation
#: by operation (same comparisons, same multiply/divide order), so that —
#: compiled with ``-ffp-contract=off`` — the per-face scalar evaluation is
#: bit-identical to the interpreted array sweep.
#:
#: Every per-face helper is ``REPRO_INLINE`` (forced inlining): the sweep
#: compiles to one loop body with no calls, so the compiler can keep the
#: face states in registers, share identical sub-expressions between the
#: inlined helpers and hoist loop invariants such as ``sqrt(gamma)``.
#: ``repro_min``/``repro_max`` replace libm ``fmin``/``fmax``: on every
#: non-NaN input they return the same bits as ``fmin``/``fmax`` and as
#: ``np.minimum``/``np.maximum`` (all four return the *second* operand on
#: a tie, signed zeros included), without a call per use.
_STENCIL_COMMON_C = """\
#define REPRO_INLINE static inline __attribute__((always_inline))

REPRO_INLINE double repro_min(double a, double b)
{
    return a < b ? a : b;
}

REPRO_INLINE double repro_max(double a, double b)
{
    return a > b ? a : b;
}

REPRO_INLINE double repro_sign(double x)
{
    return (double)((x > 0.0) - (x < 0.0));
}

/* minmod(a, b) = where(a*b > 0, where(|a| < |b|, a, b), 0) */
REPRO_INLINE double slope_minmod2(double a, double b)
{
    const double t = a * b;
    double out = (fabs(a) < fabs(b)) ? a : b;
    if (!(t > 0.0)) out = 0.0;
    return out;
}

/* minmod3: all three share a sign -> smallest magnitude, else 0 */
REPRO_INLINE double slope_minmod3(double a, double b, double c)
{
    const double sa = repro_sign(a);
    const int same = (sa == repro_sign(b)) && (repro_sign(b) == repro_sign(c))
        && (a != 0.0);
    double mag = repro_min(fabs(b), fabs(c));
    mag = repro_min(fabs(a), mag);
    double out = sa * mag;
    if (!same) out = 0.0;
    return out;
}

/* monotonized central: minmod3(2 dm, 2 dp, (dm + dp)/2) */
REPRO_INLINE double slope_mc(double dm, double dp)
{
    return slope_minmod3(dm * 2.0, dp * 2.0, (dm + dp) * 0.5);
}

REPRO_INLINE double slope_vanleer(double dm, double dp)
{
    const double prod = dm * dp;
    const double denom = dm + dp;
    const int safe = (prod > 0.0) && (fabs(denom) > 1e-300);
    double out = (prod * 2.0) / (safe ? denom : 1.0);
    if (!safe) out = 0.0;
    return out;
}

REPRO_INLINE double slope_superbee(double dm, double dp)
{
    const double s1 = slope_minmod2(dm * 2.0, dp);
    const double s2 = slope_minmod2(dm, dp * 2.0);
    return (fabs(s1) > fabs(s2)) ? s1 : s2;
}

REPRO_INLINE double limited_slope(int limiter_id, double dm, double dp)
{
    switch (limiter_id) {
    case 0: return slope_minmod2(dm, dp);
    case 1: return slope_mc(dm, dp);
    case 2: return slope_vanleer(dm, dp);
    default: return slope_superbee(dm, dp);
    }
}
"""


def _print_expressions(names, exprs, printer):
    """CSE + print: returns (prologue lines for temps, output lines)."""
    replacements, reduced = sp.cse(exprs, symbols=sp.numbered_symbols("t_"))
    temp_lines = [
        f"    {sym} = {printer.doprint(expr)}" for sym, expr in replacements
    ]
    out_lines = [
        f"    {name}[...] = {printer.doprint(expr)}"
        for name, expr in zip(names, reduced)
    ]
    return temp_lines, out_lines


class KernelGenerator:
    """Generates Python kernel source for one SRHD configuration."""

    def __init__(self, ndim: int):
        self.symbols = SRHDSymbols(ndim)
        self.ndim = ndim

    def kernel_name(self, kind: str, axis: int, target: str) -> str:
        suffix = f"_ax{axis}" if kind in ("flux", "char_speeds") else ""
        return f"{kind}{suffix}_{self.ndim}d_{target}"

    def generate(self, kind: str, axis: int = 0, target: str = "numpy") -> str:
        """Return the complete source of one kernel function.

        For the ``numpy`` and ``flat`` targets this is Python source; for
        ``cext`` it is the C function body that
        :func:`repro.codegen.cext.load_cext_module` compiles.
        """
        if target not in _TARGETS:
            raise CodegenError(f"unknown target {target!r}; choose from {_TARGETS}")
        if target == "cext":
            return self.generate_c(kind, axis)
        sym = self.symbols
        exprs = sym.expressions(kind, axis)
        in_names = sym.input_names()
        out_names = sym.output_names(kind, axis)
        printer = NumPyPrinter()
        name = self.kernel_name(kind, axis, target)

        lines = [
            "import numpy",
            "",
        ]
        if target == "numpy":
            # prim-array signature: unpack rows, write into an out array.
            lines.append(f"def {name}(prim, out, gamma):")
            lines.append(f'    """Generated {kind} kernel (axis={axis}, '
                         f'{self.ndim}D, numpy target)."""')
            for i, var in enumerate(in_names):
                lines.append(f"    {var} = prim[{i}]")
            out_rows = [f"out[{i}]" for i in range(len(out_names))]
            temp_lines, out_lines = _print_expressions(out_rows, exprs, printer)
            lines.extend(temp_lines)
            lines.extend(out_lines)
            lines.append("    return out")
        else:
            # SoA flat signature: one pointer per variable, CUDA-style.
            args = in_names + [f"out_{n}" for n in out_names] + ["gamma"]
            lines.append(f"def {name}({', '.join(args)}):")
            lines.append(f'    """Generated {kind} kernel (axis={axis}, '
                         f'{self.ndim}D, flat/SoA target)."""')
            out_rows = [f"out_{n}" for n in out_names]
            temp_lines, out_lines = _print_expressions(out_rows, exprs, printer)
            lines.extend(temp_lines)
            lines.extend(out_lines)
            ret = ", ".join(f"out_{n}" for n in out_names)
            lines.append(f"    return {ret}")
        return "\n".join(lines) + "\n"

    def default_kinds_axes(self) -> list[tuple[str, int]]:
        """Every (kind, axis) pair a solver for this ndim needs."""
        kinds_axes = [("prim_to_con", 0)]
        for ax in range(self.ndim):
            kinds_axes.append(("flux", ax))
            kinds_axes.append(("char_speeds", ax))
        return kinds_axes

    def generate_module(self, kinds_axes=None, target: str = "numpy") -> str:
        """Source for a whole kernel module (all kinds, all axes)."""
        if kinds_axes is None:
            kinds_axes = self.default_kinds_axes()
        if target == "cext":
            return self.generate_c_module(kinds_axes)
        header = (
            '"""Auto-generated SRHD kernels — do not edit.\n\n'
            f"ndim={self.ndim}, target={target}. Generated by "
            'repro.codegen.KernelGenerator."""\n'
        )
        bodies = [self.generate(kind, axis, target) for kind, axis in kinds_axes]
        return header + "\n".join(bodies)

    # -- C target ------------------------------------------------------------

    def c_signature(self, kind: str, axis: int = 0) -> str:
        """The C declaration of one generated kernel (cffi ``cdef`` form)."""
        sym = self.symbols
        name = self.kernel_name(kind, axis, "cext")
        args = ["long n"]
        args += [f"const double* in_{v}" for v in sym.input_names()]
        args += [f"double* out_{o}" for o in sym.output_names(kind, axis)]
        args.append("double gamma")
        return f"void {name}({', '.join(args)})"

    def generate_c(self, kind: str, axis: int = 0) -> str:
        """C source of one kernel: a per-cell loop over SoA pointers."""
        sym = self.symbols
        exprs = sym.expressions(kind, axis)
        out_names = sym.output_names(kind, axis)
        printer = C99CodePrinter()
        replacements, reduced = sp.cse(exprs, symbols=sp.numbered_symbols("t_"))
        lines = [
            self.c_signature(kind, axis),
            "{",
            "    for (long i = 0; i < n; ++i) {",
        ]
        for var in sym.input_names():
            lines.append(f"        const double {var} = in_{var}[i];")
        for tmp, expr in replacements:
            lines.append(f"        const double {tmp} = {printer.doprint(expr)};")
        for out, expr in zip(out_names, reduced):
            lines.append(f"        out_{out}[i] = {printer.doprint(expr)};")
        lines += ["    }", "}"]
        return "\n".join(lines) + "\n"

    def con2prim_c_signature(self) -> str:
        """C declaration of the fused con2prim Newton kernel."""
        return (
            f"long {CON2PRIM_KERNEL}(long n, const double* in_D, "
            "const double* in_S2, const double* in_tau, double* p, "
            "const double* p_lo, unsigned char* converged, int* iters, "
            "double gamma, double tol, double p_floor, int max_newton, "
            "double damping)"
        )

    def generate_c_con2prim(self) -> str:
        """C source of the fused con2prim Newton kernel (template)."""
        return _CON2PRIM_C % {"name": CON2PRIM_KERNEL}

    def generate_c_module(self, kinds_axes=None) -> str:
        """Complete C source of the compiled-kernel module for this ndim."""
        if kinds_axes is None:
            kinds_axes = self.default_kinds_axes()
        header = (
            "/* Auto-generated SRHD kernels -- do not edit.\n"
            f" * ndim={self.ndim}, target=cext. "
            "Generated by repro.codegen.KernelGenerator. */\n"
            "#include <math.h>\n"
        )
        bodies = [self.generate_c(kind, axis) for kind, axis in kinds_axes]
        bodies.append(self.generate_c_con2prim())
        return header + "\n" + "\n".join(bodies)

    def c_declarations(self, kinds_axes=None) -> str:
        """cffi ``cdef`` declarations matching :meth:`generate_c_module`."""
        if kinds_axes is None:
            kinds_axes = self.default_kinds_axes()
        decls = [self.c_signature(kind, axis) + ";" for kind, axis in kinds_axes]
        decls.append(self.con2prim_c_signature() + ";")
        return "\n".join(decls) + "\n"

    # -- fused stencil kernels (C target only) -------------------------------
    #
    # The stencil module compiles the whole face-flux stage — slope-limited
    # reconstruction, face-state sanitization, primitive->conserved
    # conversion, the physical fluxes and characteristic speeds, and the
    # LLF/HLL/HLLC combine — into one per-axis sweep.  The algebraic pieces
    # reuse the same CSE'd SymPy expressions as the pointwise kernels (as
    # per-face scalar helpers); the handwritten pieces mirror the vectorized
    # Python implementations operation by operation, so with
    # ``-ffp-contract=off`` the fused sweep is bit-identical to the
    # interpreted pipeline.

    @property
    def nvars(self) -> int:
        return self.ndim + 2

    def cell_kernel_name(self, kind: str, axis: int = 0) -> str:
        suffix = f"_ax{axis}" if kind in ("flux", "char_speeds") else ""
        short = {"prim_to_con": "p2c", "flux": "flux", "char_speeds": "char"}[kind]
        return f"cell_{short}{suffix}_{self.ndim}d"

    def stencil_kernel_name(self, axis: int) -> str:
        return f"face_flux_ax{axis}_{self.ndim}d_cext"

    def generate_c_cell(self, kind: str, axis: int = 0) -> str:
        """One CSE'd kernel as a per-face scalar helper: ``q[] -> u[]``.

        Same expressions and same CSE as :meth:`generate_c`, just evaluated
        for a single state vector instead of a loop over SoA rows — the
        per-element arithmetic is identical, which is what keeps the fused
        sweep bitwise-equal to the pointwise kernels.
        """
        sym = self.symbols
        exprs = sym.expressions(kind, axis)
        printer = C99CodePrinter()
        replacements, reduced = sp.cse(exprs, symbols=sp.numbered_symbols("t_"))
        lines = [
            f"REPRO_INLINE void {self.cell_kernel_name(kind, axis)}"
            "(const double* q, double* u, double gamma)",
            "{",
        ]
        for i, var in enumerate(sym.input_names()):
            lines.append(f"    const double {var} = q[{i}];")
        for tmp, expr in replacements:
            lines.append(f"    const double {tmp} = {printer.doprint(expr)};")
        for i, expr in enumerate(reduced):
            lines.append(f"    u[{i}] = {printer.doprint(expr)};")
        lines.append("}")
        return "\n".join(lines) + "\n"

    def generate_c_sanitize(self) -> str:
        """Face-state repair, op-for-op equal to
        :meth:`repro.core.pipeline.HydroPipeline.sanitize_face_states`.

        ``counts[0]`` accumulates velocity rescales, ``counts[1]`` floor
        applications (rho and p counted separately, *before* flooring) —
        the same totals the interpreted path feeds its metrics counters.
        """
        nv = self.nvars
        lines = [
            f"REPRO_INLINE void sanitize_face_{self.ndim}d(double* q, double vmax2,",
            "    double rho_atmo, double p_atmo, long* counts)",
            "{",
            "    double v2 = 0.0;",
        ]
        for ax in range(self.ndim):
            lines.append(f"    v2 += q[{1 + ax}] * q[{1 + ax}];")
        lines.append("    if (v2 > vmax2) {")
        lines.append("        const double scale = sqrt(vmax2 / v2);")
        for ax in range(self.ndim):
            lines.append(f"        q[{1 + ax}] *= scale;")
        lines += [
            "        counts[0] += 1;",
            "    }",
            "    if (q[0] < rho_atmo) counts[1] += 1;",
            f"    if (q[{nv - 1}] < p_atmo) counts[1] += 1;",
            "    q[0] = repro_max(q[0], rho_atmo);",
            f"    q[{nv - 1}] = repro_max(q[{nv - 1}], p_atmo);",
            "}",
        ]
        return "\n".join(lines) + "\n"

    def generate_c_combines(self) -> str:
        """The three Riemann combines as per-face helpers.

        Each mirrors the in-place NumPy implementation in
        :mod:`repro.riemann` exactly (clips, degenerate-fan guards, the
        Citardauq contact-speed form, supersonic sector selection), so the
        fused sweep reproduces the interpreted fluxes bitwise.
        """
        nd, nv, tau = self.ndim, self.nvars, self.nvars - 1
        llf = f"""\
REPRO_INLINE void combine_llf_{nd}d(double sL, double sR, const double* uL,
    const double* uR, const double* FLv, const double* FRv, double* Ff)
{{
    double smax = repro_max(fabs(sL), fabs(sR));
    smax *= 0.5;
    for (int v = 0; v < {nv}; ++v)
        Ff[v] = (FLv[v] + FRv[v]) * 0.5 - (uR[v] - uL[v]) * smax;
}}
"""
        hll = f"""\
REPRO_INLINE void combine_hll_{nd}d(double sL, double sR, const double* uL,
    const double* uR, const double* FLv, const double* FRv, double* Ff)
{{
    const double sLc = repro_min(sL, 0.0);
    const double sRc = repro_max(sR, 0.0);
    const double denom = sRc - sLc;
    const int ok = denom > 1e-300;
    const double safe = ok ? denom : 1.0;
    const double ss = sLc * sRc;
    for (int v = 0; v < {nv}; ++v) {{
        double t = FLv[v] * sRc - FRv[v] * sLc;
        t += (uR[v] - uL[v]) * ss;
        t /= safe;
        Ff[v] = ok ? t : FLv[v];
    }}
}}
"""
        side = f"""\
REPRO_INLINE void hllc_side_{nd}d(int Sx, double s, double lam_star, double p_star,
    double E, double FE, const double* qp, const double* u,
    const double* FF, double* Fs)
{{
    const double v = qp[Sx];
    const double p = qp[{nv - 1}];
    const double smv = s - v;
    const double smlam = s - lam_star;
    const double factor = smv / smlam;
    const double D_star = u[0] * factor;
    double E_star = E * smv;
    E_star += p_star * lam_star;
    E_star -= p * v;
    E_star /= smlam;
    double Sx_star = u[Sx] * smv;
    Sx_star += p_star;
    Sx_star -= p;
    Sx_star /= smlam;
    Fs[0] = FF[0] + (D_star - u[0]) * s;
    for (int i = 1; i <= {nd}; ++i) {{
        double t;
        if (i == Sx) {{
            t = Sx_star - u[Sx];
        }} else {{
            t = u[i] * factor;
            t -= u[i];
        }}
        t *= s;
        Fs[i] = FF[i] + t;
    }}
    double FE_star = FE + (E_star - E) * s;
    Fs[{tau}] = FE_star - Fs[0];
}}
"""
        hllc = f"""\
REPRO_INLINE void combine_hllc_{nd}d(int Sx, double sL, double sR,
    const double* qLp, const double* qRp,
    const double* uL, const double* uR,
    const double* FLv, const double* FRv, double* Ff)
{{
    const double sLc = repro_min(sL, -1e-12);
    const double sRc = repro_max(sR, 1e-12);
    const double dS = sRc - sLc;
    const double EL = uL[{tau}] + uL[0];
    const double ER = uR[{tau}] + uR[0];
    const double FEL = FLv[{tau}] + FLv[0];
    const double FER = FRv[{tau}] + FRv[0];
    double S_hll = sRc * uR[Sx] - sLc * uL[Sx];
    S_hll += FLv[Sx];
    S_hll -= FRv[Sx];
    S_hll /= dS;
    double E_hll = sRc * ER - sLc * EL;
    E_hll += FEL;
    E_hll -= FER;
    E_hll /= dS;
    double FS_hll = sRc * FLv[Sx] - sLc * FRv[Sx];
    FS_hll += (sLc * sRc) * (uR[Sx] - uL[Sx]);
    FS_hll /= dS;
    double FE_hll = sRc * FEL - sLc * FER;
    FE_hll += (sLc * sRc) * (ER - EL);
    FE_hll /= dS;
    /* contact speed: Citardauq root of FE lam^2 - (E + FS) lam + S = 0 */
    const double qb = -(E_hll + FS_hll);
    double disc = qb * qb - (FE_hll * 4.0) * S_hll;
    disc = repro_max(disc, 0.0);
    disc = sqrt(disc);
    const double den = -qb + disc;
    const int ok = fabs(den) > 1e-12;
    double lam_star = (S_hll * 2.0) / (ok ? den : 1.0);
    if (!ok) lam_star = 0.0;
    lam_star = repro_min(repro_max(lam_star, sLc), sRc);
    double p_star = -FE_hll;
    p_star *= lam_star;
    p_star += FS_hll;
    double fluxL[{nv}];
    double fluxR[{nv}];
    hllc_side_{nd}d(Sx, sLc, lam_star, p_star, EL, FEL, qLp, uL, FLv, fluxL);
    hllc_side_{nd}d(Sx, sRc, lam_star, p_star, ER, FER, qRp, uR, FRv, fluxR);
    const int left = lam_star >= 0.0;
    for (int v = 0; v < {nv}; ++v)
        Ff[v] = left ? fluxL[v] : fluxR[v];
    if (sL >= 0.0)
        for (int v = 0; v < {nv}; ++v) Ff[v] = FLv[v];
    if (sR <= 0.0)
        for (int v = 0; v < {nv}; ++v) Ff[v] = FRv[v];
}}
"""
        return "\n".join([llf, hll, side, hllc])

    def stencil_c_signature(self, axis: int) -> str:
        """cffi ``cdef`` declaration of one fused face-flux sweep."""
        return (
            f"void {self.stencil_kernel_name(axis)}(const double* prim, "
            "long var_stride, long axis_stride, const long* row_offsets, "
            "long n_rows, long j0, long n_faces, double* F, double gamma, "
            "double vmax2, double rho_atmo, double p_atmo, int recon_id, "
            "int limiter_id, int riemann_id, long* counts)"
        )

    def generate_c_face_flux(self, axis: int) -> str:
        """The fused per-axis sweep: reconstruct -> sanitize -> Riemann.

        Walks cache-resident rows (``row_offsets`` enumerates the ghosted
        transverse extent in C order, ``axis_stride`` steps along the
        working axis) and, per face, reconstructs the left/right states
        from the 2- or 4-cell stencil, sanitizes them, and evaluates the
        selected Riemann flux — no interface-sized temporaries anywhere.
        ``F`` is (nvars, n_rows, n_faces) C-contiguous.
        """
        nd, nv = self.ndim, self.nvars
        name = self.stencil_kernel_name(axis)
        p2c = self.cell_kernel_name("prim_to_con")
        cflux = self.cell_kernel_name("flux", axis)
        cchar = self.cell_kernel_name("char_speeds", axis)
        return f"""\
void {name}(const double* prim,
    long var_stride, long axis_stride, const long* row_offsets,
    long n_rows, long j0, long n_faces, double* F, double gamma,
    double vmax2, double rho_atmo, double p_atmo, int recon_id,
    int limiter_id, int riemann_id, long* counts)
{{
    const long fstride = n_rows * n_faces;
    for (long r = 0; r < n_rows; ++r) {{
        const double* row = prim + row_offsets[r];
        double* Frow = F + r * n_faces;
        /* TVD: cell j0+k+1's limited slope serves face k's right state
         * and face k+1's left state, so it is computed once and carried
         * along the row; seed it with cell j0's slope. */
        double slope[{nv}];
        if (recon_id != 0 && n_faces > 0) {{
            const double* cell = row + j0 * axis_stride;
            for (int v = 0; v < {nv}; ++v) {{
                const double* cv = cell + (long) v * var_stride;
                const double c0 = cv[0];
                slope[v] = limited_slope(limiter_id, c0 - cv[-axis_stride],
                                         cv[axis_stride] - c0);
            }}
        }}
        for (long k = 0; k < n_faces; ++k) {{
            const double* cell = row + (j0 + k) * axis_stride;
            double qL[{nv}];
            double qR[{nv}];
            if (recon_id == 0) {{
                /* piecewise constant: faces copy the adjacent cells */
                for (int v = 0; v < {nv}; ++v) {{
                    const double* cv = cell + (long) v * var_stride;
                    qL[v] = cv[0];
                    qR[v] = cv[axis_stride];
                }}
            }} else {{
                /* TVD: limited slopes from the 4-cell stencil */
                for (int v = 0; v < {nv}; ++v) {{
                    const double* cv = cell + (long) v * var_stride;
                    const double c0 = cv[0];
                    const double c1 = cv[axis_stride];
                    const double d0 = c1 - c0;
                    const double dp = cv[2 * axis_stride] - c1;
                    qL[v] = c0 + slope[v] * 0.5;
                    slope[v] = limited_slope(limiter_id, d0, dp);
                    qR[v] = c1 - slope[v] * 0.5;
                }}
            }}
            sanitize_face_{nd}d(qL, vmax2, rho_atmo, p_atmo, counts);
            sanitize_face_{nd}d(qR, vmax2, rho_atmo, p_atmo, counts);
            double uL[{nv}];
            double uR[{nv}];
            double FLv[{nv}];
            double FRv[{nv}];
            double lamL[2];
            double lamR[2];
            {p2c}(qL, uL, gamma);
            {p2c}(qR, uR, gamma);
            {cflux}(qL, FLv, gamma);
            {cflux}(qR, FRv, gamma);
            {cchar}(qL, lamL, gamma);
            {cchar}(qR, lamR, gamma);
            const double sL = repro_min(lamL[0], lamR[0]);
            const double sR = repro_max(lamL[1], lamR[1]);
            double Ff[{nv}];
            if (riemann_id == 0)
                combine_llf_{nd}d(sL, sR, uL, uR, FLv, FRv, Ff);
            else if (riemann_id == 1)
                combine_hll_{nd}d(sL, sR, uL, uR, FLv, FRv, Ff);
            else
                combine_hllc_{nd}d({1 + axis}, sL, sR, qL, qR, uL, uR,
                                   FLv, FRv, Ff);
            for (int v = 0; v < {nv}; ++v)
                Frow[(long) v * fstride + k] = Ff[v];
        }}
    }}
}}
"""

    def generate_c_stencil_module(self) -> str:
        """Complete C source of the fused stencil module for this ndim."""
        header = (
            "/* Auto-generated SRHD fused stencil kernels -- do not edit.\n"
            f" * ndim={self.ndim}, target=cext. "
            "Generated by repro.codegen.KernelGenerator. */\n"
            "#include <math.h>\n"
        )
        parts = [header, _STENCIL_COMMON_C, self.generate_c_sanitize()]
        parts.append(self.generate_c_cell("prim_to_con"))
        for ax in range(self.ndim):
            parts.append(self.generate_c_cell("flux", ax))
            parts.append(self.generate_c_cell("char_speeds", ax))
        parts.append(self.generate_c_combines())
        for ax in range(self.ndim):
            parts.append(self.generate_c_face_flux(ax))
        return "\n".join(parts)

    def c_stencil_declarations(self) -> str:
        """cffi ``cdef`` declarations matching
        :meth:`generate_c_stencil_module` (entry points only)."""
        decls = [self.stencil_c_signature(ax) + ";" for ax in range(self.ndim)]
        return "\n".join(decls) + "\n"
