"""Tests for the SymPy kernel generator: generated kernels must match the
handwritten reference bit-for-bit (to round-off) on both targets."""

from __future__ import annotations

import os

import numpy as np
import pytest
import sympy as sp

from repro.codegen import (
    KernelGenerator,
    SRHDSymbols,
    cache_size,
    clear_cache,
    load_kernel,
    run_flat_kernel,
    verify_kernels,
)
from repro.eos import IdealGasEOS
from repro.physics.srhd import SRHDSystem
from repro.utils.errors import CodegenError

from .conftest import random_prim


class TestSymbols:
    def test_invalid_ndim(self):
        with pytest.raises(CodegenError):
            SRHDSymbols(4)

    def test_conserved_count(self):
        for ndim in (1, 2, 3):
            assert len(SRHDSymbols(ndim).conserved()) == ndim + 2

    def test_lorentz_expression(self):
        sym = SRHDSymbols(1)
        W = sym.lorentz.subs({sym.v[0]: sp.Rational(3, 5)})
        assert sp.simplify(W - sp.Rational(5, 4)) == 0

    def test_static_conserved_reduce_correctly(self):
        """At v = 0: D = rho, S = 0, tau = rho*eps."""
        sym = SRHDSymbols(1)
        subs = {sym.v[0]: 0}
        D, S, tau = [sp.simplify(e.subs(subs)) for e in sym.conserved()]
        assert D == sym.rho
        assert S == 0
        eps = sym.eps
        assert sp.simplify(tau - sym.rho * eps.subs(subs)) == 0

    def test_flux_axis_out_of_range(self):
        with pytest.raises(CodegenError):
            SRHDSymbols(2).flux(2)

    def test_char_speeds_reduce_to_sound_speed_at_rest(self):
        sym = SRHDSymbols(1)
        lam_m, lam_p = sym.char_speeds(0)
        at_rest = {sym.v[0]: 0}
        cs = sp.sqrt(sym.sound_speed_sq)
        assert sp.simplify(lam_p.subs(at_rest) - cs.subs(at_rest)) == 0
        assert sp.simplify(lam_m.subs(at_rest) + cs.subs(at_rest)) == 0

    def test_unknown_kind(self):
        with pytest.raises(CodegenError):
            SRHDSymbols(1).expressions("sources")


class TestGeneratedSource:
    def test_source_is_valid_python(self):
        gen = KernelGenerator(2)
        for kind in ("prim_to_con", "flux", "char_speeds"):
            for target in ("numpy", "flat"):
                src = gen.generate(kind, axis=0, target=target)
                compile(src, "<test>", "exec")  # must not raise

    def test_cse_produces_temporaries(self):
        """CSE must fire: the Lorentz factor appears in every component."""
        src = KernelGenerator(2).generate("prim_to_con")
        assert "t_0" in src

    def test_module_generation(self):
        src = KernelGenerator(1).generate_module()
        ns: dict = {}
        exec(compile(src, "<module>", "exec"), ns)
        assert "prim_to_con_1d_numpy" in ns
        assert "flux_ax0_1d_numpy" in ns
        assert "char_speeds_ax0_1d_numpy" in ns

    def test_unknown_target(self):
        with pytest.raises(CodegenError):
            KernelGenerator(1).generate("flux", target="cuda")


class TestKernelCorrectness:
    @pytest.mark.parametrize("ndim", [1, 2, 3])
    def test_verify_all_kernels(self, ndim):
        deviations = verify_kernels(ndim, rtol=1e-11)
        assert max(deviations.values()) < 1e-11
        # numpy and flat targets both covered.
        assert any("/numpy" in k for k in deviations)
        assert any("/flat" in k for k in deviations)

    def test_numpy_kernel_matches_reference(self, rng):
        system = SRHDSystem(IdealGasEOS(gamma=1.4), ndim=2)
        prim = random_prim(system, (8, 8), rng)
        kernel = load_kernel("prim_to_con", ndim=2)
        got = kernel(prim, np.empty_like(prim), 1.4)
        np.testing.assert_allclose(got, system.prim_to_con(prim), rtol=1e-12)

    def test_flat_kernel_matches_reference(self, rng):
        system = SRHDSystem(IdealGasEOS(gamma=1.4), ndim=1)
        prim = random_prim(system, (64,), rng)
        kernel = load_kernel("flux", ndim=1, axis=0, target="flat")
        got = run_flat_kernel(kernel, prim, n_out=3, gamma=1.4)
        cons = system.prim_to_con(prim)
        np.testing.assert_allclose(got, system.flux(prim, cons, 0), rtol=1e-12)

    def test_gamma_is_a_runtime_parameter(self, rng):
        """One generated kernel serves every Gamma-law EOS."""
        kernel = load_kernel("prim_to_con", ndim=1)
        system_a = SRHDSystem(IdealGasEOS(gamma=1.4), ndim=1)
        system_b = SRHDSystem(IdealGasEOS(gamma=5.0 / 3.0), ndim=1)
        prim = random_prim(system_a, (16,), rng)
        got_a = kernel(prim, np.empty_like(prim), 1.4)
        got_b = kernel(prim, np.empty_like(prim), 5.0 / 3.0)
        np.testing.assert_allclose(got_a, system_a.prim_to_con(prim), rtol=1e-12)
        np.testing.assert_allclose(got_b, system_b.prim_to_con(prim), rtol=1e-12)
        assert not np.allclose(got_a, got_b)


class TestGeneratedSystemInSolver:
    """Generated kernels driving the full production solver."""

    def test_shock_tube_matches_handwritten(self):
        from repro import Grid, Solver, SolverConfig
        from repro.codegen import GeneratedSRHDSystem
        from repro.physics.initial_data import RP1, shock_tube

        cfg = SolverConfig(cfl=0.4)
        grid = Grid((64,), ((0.0, 1.0),))

        ref_system = SRHDSystem(IdealGasEOS(gamma=RP1.gamma), ndim=1)
        ref = Solver(ref_system, grid, shock_tube(ref_system, grid, RP1), cfg)
        ref.run(t_final=0.1)

        gen_system = GeneratedSRHDSystem(gamma=RP1.gamma, ndim=1)
        gen = Solver(gen_system, grid, shock_tube(gen_system, grid, RP1), cfg)
        gen.run(t_final=0.1)

        assert gen.summary.steps == ref.summary.steps
        np.testing.assert_allclose(
            gen.interior_primitives(), ref.interior_primitives(),
            rtol=1e-9, atol=1e-11,
        )

    def test_2d_evolution_stable(self):
        from repro import Grid, Solver, SolverConfig
        from repro.codegen import GeneratedSRHDSystem
        from repro.physics.initial_data import blast_wave_2d

        system = GeneratedSRHDSystem(ndim=2)
        grid = Grid((16, 16), ((0, 1), (0, 1)))
        prim0 = blast_wave_2d(system, grid, p_in=10.0, radius=0.2)
        solver = Solver(system, grid, prim0, SolverConfig(cfl=0.4))
        solver.run(t_final=0.03)
        assert np.all(np.isfinite(solver.interior_primitives()))

    def test_superluminal_guard_retained(self):
        from repro.codegen import GeneratedSRHDSystem
        from repro.utils.errors import ConfigurationError

        system = GeneratedSRHDSystem(ndim=1)
        with pytest.raises(ConfigurationError, match="superluminal"):
            system.prim_to_con(np.array([[1.0], [1.5], [1.0]]))


class TestCrossTargetParity:
    """Property tests: randomized states through every target, including the
    hostile corners — near-luminal velocities (Lorentz factors in the
    hundreds) and low-pressure atmosphere states."""

    N = 512

    @staticmethod
    def _hostile_prim(system, n, rng):
        """Random admissible states spanning three regimes: generic,
        near-luminal (|v| up to 1 - 1e-6), and cold atmosphere."""
        prim = np.empty((system.nvars, n))
        prim[system.RHO] = 10.0 ** rng.uniform(-6.0, 1.0, n)
        regime = rng.integers(0, 3, n)
        speed = np.where(
            regime == 1,
            1.0 - 10.0 ** rng.uniform(-6.0, -3.0, n),
            rng.uniform(0.0, 0.9, n),
        )
        direction = rng.normal(size=(system.ndim, n))
        direction /= np.maximum(
            np.sqrt((direction**2).sum(axis=0)), 1e-300
        )
        for ax in range(system.ndim):
            prim[system.V(ax)] = direction[ax] * speed
        prim[system.P] = np.where(
            regime == 2,
            10.0 ** rng.uniform(-12.0, -8.0, n),
            10.0 ** rng.uniform(-2.0, 1.0, n),
        )
        return prim

    @pytest.mark.parametrize("ndim", [1, 2])
    def test_algebraic_kernels_agree_across_targets(self, ndim, rng):
        from repro.codegen import cext_available

        gamma = 5.0 / 3.0
        system = SRHDSystem(IdealGasEOS(gamma=gamma), ndim=ndim)
        prim = self._hostile_prim(system, self.N, rng)
        cons = system.prim_to_con(prim)
        have_cext = cext_available(ndim)

        cases = [("prim_to_con", 0, cons, system.nvars)]
        for ax in range(ndim):
            cases.append(("flux", ax, system.flux(prim, cons, ax), system.nvars))
            cases.append(
                ("char_speeds", ax, np.stack(system.char_speeds(prim, ax)), 2)
            )
        for kind, axis, ref, n_out in cases:
            k_np = load_kernel(kind, ndim, axis, "numpy")
            got_np = k_np(prim, np.empty((n_out, self.N)), gamma)
            np.testing.assert_allclose(
                got_np, ref, rtol=1e-9, atol=1e-12,
                err_msg=f"{kind}{axis}/numpy vs handwritten",
            )
            k_flat = load_kernel(kind, ndim, axis, "flat")
            got_flat = run_flat_kernel(k_flat, prim, n_out, gamma)
            np.testing.assert_allclose(
                got_flat, ref, rtol=1e-9, atol=1e-12,
                err_msg=f"{kind}{axis}/flat vs handwritten",
            )
            if have_cext:
                k_c = load_kernel(kind, ndim, axis, "cext")
                got_c = run_flat_kernel(k_c, prim, n_out, gamma)
                # Same CSE'd expression tree, contraction disabled: the C
                # kernels reproduce the flat target bit for bit.
                assert got_c.tobytes() == got_flat.tobytes(), (
                    f"{kind}{axis}: cext differs bitwise from flat"
                )

    @pytest.mark.parametrize("ndim", [1, 2])
    def test_con2prim_recovery_compiled_matches_reference(self, ndim, rng):
        from repro.codegen import cext_available
        from repro.codegen.system import CompiledSRHDSystem
        from repro.physics.con2prim import con_to_prim

        if not cext_available(ndim):
            pytest.skip("no C toolchain: compiled con2prim unavailable")
        gamma = 5.0 / 3.0
        system = SRHDSystem(IdealGasEOS(gamma=gamma), ndim=ndim)
        # Recovery regime: fast but sub-0.99 flow, pressures down to 1e-8
        # (the full near-luminal corner is the algebraic kernels' job; the
        # Newton solve itself is exercised to its convergence tolerance).
        prim = self._hostile_prim(system, self.N, rng)
        for ax in range(ndim):
            prim[system.V(ax)] *= 0.99 / (1.0 + 1e-12)
        prim[system.P] = np.maximum(prim[system.P], 1e-8)
        cons = system.prim_to_con(prim)

        recovered_ref = con_to_prim(system, cons.copy())
        compiled = CompiledSRHDSystem(gamma=gamma, ndim=ndim)
        recovered_c = con_to_prim(compiled, cons.copy())
        np.testing.assert_allclose(
            recovered_c, recovered_ref, rtol=1e-8, atol=1e-12
        )
        # And both land back on the state we started from.
        np.testing.assert_allclose(recovered_ref, prim, rtol=1e-6, atol=1e-10)

    @pytest.mark.parametrize("ndim", [1, 2])
    def test_verify_kernels_covers_cext(self, ndim):
        from repro.codegen import cext_available

        if not cext_available(ndim):
            pytest.skip("no C toolchain")
        # Default tolerance is 1e-12; verify_kernels raises on violation.
        deviations = verify_kernels(ndim)
        assert any(k.endswith("/cext") for k in deviations)
        assert "con2prim/cext" in deviations


class TestCacheInvalidation:
    """A changed symbolic spec or emitter must never serve a stale kernel:
    the in-process cache keys on the source hash, the cext artifact on the
    C source + toolchain fingerprint."""

    def test_spec_change_recompiles_interpreted_kernel(self, monkeypatch, rng):
        from repro.codegen import cache as cache_mod

        clear_cache()
        k1 = load_kernel("flux", ndim=1, axis=0)
        n0 = cache_mod.compile_count
        assert load_kernel("flux", ndim=1, axis=0) is k1
        assert cache_mod.compile_count == n0  # unchanged source: cache hit

        orig = SRHDSymbols.expressions

        def doubled(self, kind, axis=0):
            return [2 * e for e in orig(self, kind, axis)]

        monkeypatch.setattr(SRHDSymbols, "expressions", doubled)
        k2 = load_kernel("flux", ndim=1, axis=0)
        assert cache_mod.compile_count == n0 + 1, (
            "mutated spec did not trigger a recompile"
        )
        assert k2 is not k1
        system = SRHDSystem(IdealGasEOS(gamma=1.4), ndim=1)
        prim = random_prim(system, (32,), rng)
        a = k1(prim, np.empty_like(prim), 1.4)
        b = k2(prim, np.empty_like(prim), 1.4)
        np.testing.assert_allclose(b, 2 * a, rtol=1e-13)

        monkeypatch.undo()
        # Original spec again: its hash is still cached, no third compile.
        assert load_kernel("flux", ndim=1, axis=0) is k1
        assert cache_mod.compile_count == n0 + 1

    def test_cext_artifact_key_tracks_source_and_toolchain(self, monkeypatch):
        from repro.codegen import cext as cext_mod

        try:
            name1, _, _ = cext_mod.module_spec(1)
        except CodegenError:
            pytest.skip("no cffi: cext key unavailable")

        orig = KernelGenerator.generate_c_module
        monkeypatch.setattr(
            KernelGenerator,
            "generate_c_module",
            lambda self, kinds_axes=None: orig(self, kinds_axes) + "\n/* v2 */\n",
        )
        name2, _, _ = cext_mod.module_spec(1)
        assert name2 != name1, "emitter change did not change the artifact key"
        monkeypatch.undo()

        monkeypatch.setattr(
            cext_mod, "toolchain_fingerprint", lambda: "cc=other-compiler"
        )
        name3, _, _ = cext_mod.module_spec(1)
        assert name3 != name1, "toolchain change did not change the artifact key"
        monkeypatch.undo()

        st1, _, _ = cext_mod.stencil_module_spec(1)
        monkeypatch.setattr(
            cext_mod, "COMPILE_FLAGS", cext_mod.COMPILE_FLAGS + ("-O3",)
        )
        assert cext_mod.module_spec(1)[0] != name1, (
            "compile-flag change did not change the artifact key"
        )
        assert cext_mod.stencil_module_spec(1)[0] != st1, (
            "compile-flag change did not change the stencil artifact key"
        )

    def test_cext_rejected_flags_fall_back_uncached(self, monkeypatch, tmp_path):
        """A toolchain that rejects the compile flags must not be retried
        without them (that would drop -ffp-contract=off under a bitwise
        name): the build raises, the target falls back to flat with a
        logged warning, and nothing lands in the artifact cache."""
        import logging

        from repro.codegen import cext as cext_mod
        from repro.codegen.system import GeneratedSRHDSystem, make_kernel_system

        try:
            cext_mod.toolchain_fingerprint()
        except CodegenError:
            pytest.skip("no cffi: cext build path unavailable")
        monkeypatch.setenv(cext_mod.CACHE_DIR_ENV, str(tmp_path))
        monkeypatch.delenv(cext_mod.DISABLE_ENV, raising=False)
        cext_mod.clear_modules()
        calls = []

        def reject(name, source, cdef, tmpdir, flags):
            calls.append(tuple(flags or ()))
            raise RuntimeError("cc: error: unrecognized command-line option")

        monkeypatch.setattr(cext_mod, "_compile_once", reject)
        records: list[logging.LogRecord] = []
        handler = logging.Handler(level=logging.WARNING)
        handler.emit = records.append
        log = logging.getLogger("repro.codegen.system")
        log.addHandler(handler)
        try:
            system = make_kernel_system(
                SRHDSystem(IdealGasEOS(gamma=5.0 / 3.0), ndim=1), "cext"
            )
        finally:
            log.removeHandler(handler)
            cext_mod.clear_modules()
        assert isinstance(system, GeneratedSRHDSystem)
        assert system.target == "flat"
        assert calls == [cext_mod.COMPILE_FLAGS], "build retried without flags"
        assert any("falling back" in r.getMessage() for r in records)
        assert cext_mod.cache_report()["n_artifacts"] == 0

    def test_cext_spec_change_rebuilds_artifact(self, monkeypatch, tmp_path):
        from repro.codegen import cext as cext_mod

        if not cext_mod.cext_available(1):
            pytest.skip("no C toolchain")
        monkeypatch.setenv(cext_mod.CACHE_DIR_ENV, str(tmp_path))
        cext_mod.clear_modules()
        # A minimal one-kernel module keeps the two builds cheap.
        kinds_axes = [("prim_to_con", 0)]
        n0 = cext_mod.build_count
        cext_mod.load_cext_module(1, kinds_axes)
        assert cext_mod.build_count == n0 + 1
        cext_mod.load_cext_module(1, kinds_axes)  # in-process handle
        assert cext_mod.build_count == n0 + 1
        cext_mod.clear_modules()
        cext_mod.load_cext_module(1, kinds_axes)  # disk artifact hit
        assert cext_mod.build_count == n0 + 1

        orig = KernelGenerator.generate_c_module
        monkeypatch.setattr(
            KernelGenerator,
            "generate_c_module",
            lambda self, ka=None: orig(self, ka) + "\n/* spec v2 */\n",
        )
        cext_mod.load_cext_module(1, kinds_axes)  # new hash: full rebuild
        assert cext_mod.build_count == n0 + 2
        cext_mod.clear_modules()


class TestNoToolchainFallback:
    """REPRO_CEXT_DISABLE=1 models the no-toolchain host: the cext target
    must degrade to 'flat' with a logged warning, never fail the run."""

    def test_disable_env_forces_flat_fallback(self, monkeypatch):
        import logging

        from repro.codegen import cext as cext_mod
        from repro.codegen.system import GeneratedSRHDSystem, make_kernel_system

        monkeypatch.setenv(cext_mod.DISABLE_ENV, "1")
        assert not cext_mod.cext_available(1)

        records: list[logging.LogRecord] = []
        handler = logging.Handler()
        handler.emit = records.append
        log = logging.getLogger("repro.codegen.system")
        log.addHandler(handler)
        try:
            system = SRHDSystem(IdealGasEOS(gamma=1.4), ndim=1)
            resolved = make_kernel_system(system, "cext")
        finally:
            log.removeHandler(handler)
        assert isinstance(resolved, GeneratedSRHDSystem)
        assert resolved.target == "flat"
        assert any("falling back" in r.getMessage() for r in records)

    def test_disabled_cext_still_solves(self, monkeypatch):
        from repro import Grid, Solver, SolverConfig
        from repro.codegen import cext as cext_mod
        from repro.physics.initial_data import RP1, shock_tube

        monkeypatch.setenv(cext_mod.DISABLE_ENV, "1")
        system = SRHDSystem(IdealGasEOS(gamma=RP1.gamma), ndim=1)
        grid = Grid((32,), ((0.0, 1.0),))
        solver = Solver(
            system, grid, shock_tube(system, grid, RP1),
            SolverConfig(cfl=0.4, kernel_target="cext"),
        )
        solver.run(t_final=0.05)
        assert np.all(np.isfinite(solver.interior_primitives()))


class TestCache:
    def test_kernels_are_cached(self):
        clear_cache()
        k1 = load_kernel("prim_to_con", ndim=1)
        n = cache_size()
        k2 = load_kernel("prim_to_con", ndim=1)
        assert k1 is k2
        assert cache_size() == n

    def test_distinct_keys_cached_separately(self):
        clear_cache()
        load_kernel("flux", ndim=2, axis=0)
        load_kernel("flux", ndim=2, axis=1)
        load_kernel("flux", ndim=2, axis=0, target="flat")
        assert cache_size() == 3


class TestCextCacheCorruption:
    """A corrupt cached artifact must be evicted and rebuilt, not crash."""

    def test_corrupt_artifact_evicted_and_rebuilt(self, monkeypatch, tmp_path):
        import json
        import os
        import subprocess
        import sys

        from repro.codegen import cext as cext_mod

        if not cext_mod.cext_available(1):
            pytest.skip("no C toolchain")
        # Plant a corrupt artifact under the exact key a fresh process will
        # look up (CPython caches extension imports in-process, so the
        # eviction path only runs on a cold start — drive one).
        monkeypatch.setenv(cext_mod.CACHE_DIR_ENV, str(tmp_path))
        kinds_axes = [("prim_to_con", 0)]
        name, _, _ = cext_mod.module_spec(1, kinds_axes)
        path = cext_mod.artifact_path(name)
        garbage = b"\x7fELF garbage, not a real shared object"
        path.write_bytes(garbage)

        env = dict(os.environ)
        env[cext_mod.CACHE_DIR_ENV] = str(tmp_path)
        probe = (
            "import json\n"
            "from repro.codegen import cext\n"
            "ffi, lib = cext.load_cext_module(1, [('prim_to_con', 0)])\n"
            "print(json.dumps({'builds': cext.build_count,"
            " 'loaded': lib is not None}))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True, text=True, timeout=240, env=env,
        )
        assert out.returncode == 0, f"cold load crashed:\n{out.stderr}"
        result = json.loads(out.stdout.strip().splitlines()[-1])
        assert result == {"builds": 1, "loaded": True}, (
            "corrupt artifact was not evicted and rebuilt"
        )
        assert path.read_bytes() != garbage, "corrupt artifact left in cache"


class TestFusedStencilParity:
    """The fused cext face-flux sweep vs the interpreted stages.

    Random smooth and discontinuous ghosted states through both pipelines
    for every limiter x Riemann combo: the compiled sweep must reproduce
    the interpreted divergence bitwise (FP contraction is off) *and* the
    sanitize counter totals exactly.
    """

    COMBOS = [
        (recon, riemann)
        for recon in ("pc", "minmod", "mc", "vanleer", "superbee")
        for riemann in ("llf", "hll", "hllc")
    ]

    @staticmethod
    def _pipeline(target, recon, riemann, ndim=2, n_ghost=2, **kw):
        from repro.boundary.conditions import BoundarySet
        from repro.core.config import SolverConfig
        from repro.core.pipeline import HydroPipeline
        from repro.mesh.grid import Grid

        shape = {1: (24,), 2: (12, 10), 3: (8, 6, 5)}[ndim]
        grid = Grid(shape, tuple((0.0, 1.0) for _ in shape), n_ghost=n_ghost)
        system = SRHDSystem(IdealGasEOS(gamma=5.0 / 3.0), ndim=ndim)
        config = SolverConfig(
            reconstruction=recon, riemann=riemann, kernel_target=target, **kw
        )
        return HydroPipeline(system, grid, BoundarySet(), config)

    @staticmethod
    def _ghosted_prim(pipe, seed, discontinuous):
        rng = np.random.default_rng(seed)
        shape = (pipe.system.nvars,) + pipe.grid.shape_with_ghosts
        prim = np.zeros(shape)
        prim[pipe.system.RHO] = 10.0 ** rng.uniform(-4.0, 1.0, shape[1:])
        prim[pipe.system.P] = 10.0 ** rng.uniform(-6.0, 1.0, shape[1:])
        v = rng.uniform(-0.95, 0.95, (pipe.system.ndim,) + shape[1:])
        v2 = (v**2).sum(axis=0)
        cap = np.where(v2 > 0.98, np.sqrt(0.98 / np.maximum(v2, 1e-300)), 1.0)
        for ax in range(pipe.system.ndim):
            prim[pipe.system.V(ax)] = v[ax] * cap
        if discontinuous:
            # Axis-aligned jumps: the states TVD limiters are made for.
            prim[pipe.system.RHO, : shape[1] // 2] *= 1e3
            prim[pipe.system.P, ..., shape[-1] // 2 :] *= 1e4
        return prim

    @pytest.mark.parametrize("recon,riemann", COMBOS)
    def test_fused_sweep_bitwise_all_combos(self, recon, riemann):
        from hypothesis import given, settings
        from hypothesis import strategies as st

        from repro.codegen import cext_available

        if not cext_available(2):
            pytest.skip("no C toolchain")
        flat = self._pipeline("flat", recon, riemann)
        cext = self._pipeline("cext", recon, riemann)
        assert cext._fused_ids is not None, "fused sweep did not engage"

        @given(
            seed=st.integers(min_value=0, max_value=2**32 - 1),
            discontinuous=st.booleans(),
        )
        @settings(max_examples=4, deadline=None, database=None)
        def check(seed, discontinuous):
            prim = self._ghosted_prim(flat, seed, discontinuous)
            self._assert_parity(flat, cext, prim, f"{recon}/{riemann}")

        check()

    @staticmethod
    def _assert_parity(flat, cext, prim, label):
        """Divergence bytes and sanitize counter totals must match."""
        div_flat = flat.flux_divergence(prim.copy())
        div_cext = cext.flux_divergence(prim.copy())
        assert div_flat.tobytes() == div_cext.tobytes(), (
            f"{label}: fused sweep differs bitwise"
        )
        for counter in ("sanitize.velocity_rescaled", "sanitize.floored"):
            assert (
                flat.metrics.counter(counter).value
                == cext.metrics.counter(counter).value
            ), f"{label}: {counter} totals diverge"

    @staticmethod
    def _tie_prim(pipe, seed):
        """States built to hit every min/max tie of the sweep: plateaus
        (equal neighbours, zero slopes), ``v = +0.0`` next to ``v = -0.0``,
        and symmetric states whose wave speeds tie in magnitude."""
        rng = np.random.default_rng(seed)
        system = pipe.system
        shape = (system.nvars,) + pipe.grid.shape_with_ghosts
        prim = np.zeros(shape)
        prim[system.RHO] = rng.choice([1.0, 1.0, 10.0], shape[1:])
        prim[system.P] = rng.choice([1.0, 1.0, 0.1], shape[1:])
        for ax in range(system.ndim):
            prim[system.V(ax)] = rng.choice([-0.0, 0.0, 0.0, -0.4, 0.4], shape[1:])
        # Two plateaus along the first axis: one at rest with -0.0
        # velocities, one at rest with +0.0.
        third = shape[1] // 3
        prim[system.RHO, :third] = 1.0
        prim[system.P, :third] = 1.0
        prim[system.RHO, -third:] = 1.0
        prim[system.P, -third:] = 1.0
        for ax in range(system.ndim):
            prim[system.V(ax), :third] = -0.0
            prim[system.V(ax), -third:] = 0.0
        return prim

    @pytest.mark.parametrize("ndim", [1, 2, 3])
    @pytest.mark.parametrize("recon,riemann", COMBOS)
    def test_fused_sweep_bitwise_on_ties(self, ndim, recon, riemann):
        """Plateaus and signed zeros drive the limiters, sanitization and
        wave-speed selection onto their equality branches.  Every tie the
        sweep can reach compares equal bit patterns or absolute values, so
        this pins parity there; which operand a tie returns is not
        observable through the sweep."""
        from repro.codegen import cext_available

        if not cext_available(ndim):
            pytest.skip("no C toolchain")
        flat = self._pipeline("flat", recon, riemann, ndim=ndim)
        cext = self._pipeline("cext", recon, riemann, ndim=ndim)
        assert cext._fused_ids is not None, "fused sweep did not engage"
        for seed in (0, 1):
            prim = self._tie_prim(flat, seed)
            self._assert_parity(
                flat, cext, prim, f"{ndim}d {recon}/{riemann} ties"
            )

    @pytest.mark.parametrize("recon", ["pc", "minmod", "mc", "vanleer", "superbee"])
    def test_region_split_matches_full_axis_slice(self, recon):
        """A sweep over interior cells ``[lo, hi)`` (the overlapped
        solver's core and strip regions) re-seeds the carried slope at its
        first face: it must equal the matching slice of the full-axis sweep
        bitwise, and the flat target's region sweep."""
        from repro.codegen import cext_available

        if not cext_available(2):
            pytest.skip("no C toolchain")
        flat = self._pipeline("flat", recon, "hllc")
        cext = self._pipeline("cext", recon, "hllc")
        assert cext._fused_ids is not None
        g = cext.grid.n_ghost
        prim = self._ghosted_prim(flat, 4321, True)
        for axis in range(2):
            n = cext.grid.shape[axis]
            full = cext.flux_divergence_region(prim, axis, 0, n)
            for lo, hi in ((0, g), (g, n - g), (n - g, n), (1, n - 1), (3, 4)):
                part = cext.flux_divergence_region(prim, axis, lo, hi)
                assert part.tobytes() == np.ascontiguousarray(
                    full[..., lo:hi]
                ).tobytes(), f"axis {axis} [{lo}, {hi}) != full-axis slice"
                ref = flat.flux_divergence_region(prim, axis, lo, hi)
                assert part.tobytes() == ref.tobytes(), (
                    f"axis {axis} [{lo}, {hi}): cext region != flat region"
                )

    @pytest.mark.parametrize("ndim", [1, 3])
    def test_fused_sweep_bitwise_other_ndims(self, ndim):
        """Every reconstruction x Riemann combo in 1-D and 3-D."""
        from repro.codegen import cext_available

        if not cext_available(ndim):
            pytest.skip("no C toolchain")
        for recon, riemann in self.COMBOS:
            flat = self._pipeline("flat", recon, riemann, ndim=ndim)
            cext = self._pipeline("cext", recon, riemann, ndim=ndim)
            assert cext._fused_ids is not None
            for seed, discontinuous in ((1234, True), (17, False)):
                prim = self._ghosted_prim(flat, seed, discontinuous)
                self._assert_parity(
                    flat, cext, prim, f"{ndim}d {recon}/{riemann}"
                )

    def test_fused_off_matches_fused_on(self):
        """fused_stencils=False must give the identical (bitwise) result
        through the interpreted stages — that is the fallback contract."""
        from repro.codegen import cext_available

        if not cext_available(2):
            pytest.skip("no C toolchain")
        on = self._pipeline("cext", "mc", "hllc")
        off = self._pipeline("cext", "mc", "hllc", fused_stencils=False)
        assert on._fused_ids is not None
        assert off._fused_ids is None
        prim = self._ghosted_prim(on, 99, True)
        assert (
            on.flux_divergence(prim.copy()).tobytes()
            == off.flux_divergence(prim.copy()).tobytes()
        )
        assert "face_flux" in on.timers
        assert "face_flux" not in off.timers

    def test_unsupported_scheme_keeps_interpreted_path(self):
        """A reconstruction without a compiled form must degrade to the
        interpreted stages for that pipeline only, without warnings."""
        from repro.codegen import cext_available
        from repro.reconstruct import SCHEMES

        if not cext_available(2):
            pytest.skip("no C toolchain")
        exotic = next(
            (s for s in ("ppm", "weno5", "weno") if s in SCHEMES), None
        )
        if exotic is None:
            pytest.skip("no higher-order scheme registered")
        pipe = self._pipeline("cext", exotic, "hllc", n_ghost=3)
        assert pipe._fused_ids is None
        prim = self._ghosted_prim(pipe, 5, False)
        assert np.all(np.isfinite(pipe.grid.interior_of(
            pipe.flux_divergence(prim)
        )))


class TestStencilFallback:
    """Per-kernel degradation: a missing stencil module must keep the
    pointwise compiled kernels and fall back to the interpreted face-flux
    sweep, with a logged warning naming the fallback."""

    def test_stencil_disable_env_per_kernel_fallback(self, monkeypatch):
        import logging

        from repro.codegen import cext as cext_mod
        from repro.codegen import cext_available, clear_cache
        from repro.codegen.system import CompiledSRHDSystem

        if not cext_available(2):
            pytest.skip("no C toolchain")
        monkeypatch.setenv(cext_mod.STENCIL_DISABLE_ENV, "1")
        clear_cache()
        records: list[logging.LogRecord] = []
        handler = logging.Handler()
        handler.emit = records.append
        log = logging.getLogger("repro.codegen.system")
        log.addHandler(handler)
        try:
            fused = TestFusedStencilParity._pipeline("cext", "mc", "hllc")
        finally:
            log.removeHandler(handler)
            clear_cache()
        assert isinstance(fused.system, CompiledSRHDSystem)
        assert not fused.system.has_fused_stencils
        assert fused._fused_ids is None
        assert any(
            "falls back to the interpreted path" in r.getMessage()
            for r in records
        )
        # The degraded pipeline still matches flat bitwise (it *is* the
        # interpreted sweep over compiled pointwise kernels).
        flat = TestFusedStencilParity._pipeline("flat", "mc", "hllc")
        prim = TestFusedStencilParity._ghosted_prim(flat, 7, True)
        assert (
            flat.flux_divergence(prim.copy()).tobytes()
            == fused.flux_divergence(prim.copy()).tobytes()
        )

    def test_disable_env_keeps_interpreted_stencils(self, monkeypatch):
        """Full REPRO_CEXT_DISABLE: the whole target degrades to flat and
        the pipeline never engages the fused sweep (the compiled-fallback
        CI job runs the suite under this env)."""
        from repro.codegen import cext as cext_mod
        from repro.codegen import clear_cache

        monkeypatch.setenv(cext_mod.DISABLE_ENV, "1")
        clear_cache()
        try:
            pipe = TestFusedStencilParity._pipeline("cext", "mc", "hllc")
        finally:
            clear_cache()
        assert pipe._fused_ids is None
        with pytest.raises(CodegenError):
            cext_mod.load_cext_stencil_module(2)
        prim = TestFusedStencilParity._ghosted_prim(pipe, 11, False)
        assert np.all(np.isfinite(pipe.grid.interior_of(
            pipe.flux_divergence(prim)
        )))


class TestCacheMaintenance:
    """`repro cache`'s engine: report + LRU pruning over the artifact dir."""

    @staticmethod
    def _plant(tmp_path, name, size, mtime):
        p = tmp_path / name
        p.write_bytes(b"x" * size)
        os.utime(p, (mtime, mtime))
        return p

    def test_cache_report_lists_lru_first(self, monkeypatch, tmp_path):
        from repro.codegen import cext as cext_mod

        monkeypatch.setenv(cext_mod.CACHE_DIR_ENV, str(tmp_path))
        self._plant(tmp_path, "new.so", 100, 2000.0)
        self._plant(tmp_path, "old.so", 300, 1000.0)
        report = cext_mod.cache_report()
        assert report["dir"] == str(tmp_path)
        assert report["n_artifacts"] == 2
        assert report["total_bytes"] == 400
        assert [a["name"] for a in report["artifacts"]] == ["old.so", "new.so"]

    def test_prune_evicts_lru_until_bound(self, monkeypatch, tmp_path):
        from repro.codegen import cext as cext_mod

        monkeypatch.setenv(cext_mod.CACHE_DIR_ENV, str(tmp_path))
        self._plant(tmp_path, "a.so", 400, 1000.0)  # oldest
        self._plant(tmp_path, "b.so", 400, 2000.0)
        self._plant(tmp_path, "c.so", 400, 3000.0)  # newest
        removed = cext_mod.prune_cache(900)
        assert removed == ["a.so"]
        assert not (tmp_path / "a.so").exists()
        assert (tmp_path / "b.so").exists() and (tmp_path / "c.so").exists()
        # Already under the bound: no-op.
        assert cext_mod.prune_cache(900) == []
        # Zero bound empties the cache.
        assert sorted(cext_mod.prune_cache(0)) == ["b.so", "c.so"]
        assert cext_mod.cache_report()["n_artifacts"] == 0

    def test_prune_rejects_negative_bound(self, monkeypatch, tmp_path):
        from repro.codegen import cext as cext_mod

        monkeypatch.setenv(cext_mod.CACHE_DIR_ENV, str(tmp_path))
        with pytest.raises(ValueError):
            cext_mod.prune_cache(-1)

    def test_served_artifact_is_touched(self, monkeypatch, tmp_path):
        """Loading an existing artifact refreshes its mtime, so long-lived
        hot kernels survive LRU pruning."""
        from repro.codegen import cext as cext_mod
        from repro.codegen import cext_available

        if not cext_available(1):
            pytest.skip("no C toolchain")
        monkeypatch.setenv(cext_mod.CACHE_DIR_ENV, str(tmp_path))
        kinds_axes = [("prim_to_con", 0)]
        cext_mod.load_cext_module(1, kinds_axes)
        name, _, _ = cext_mod.module_spec(1, kinds_axes)
        path = cext_mod.artifact_path(name)
        assert path.exists()
        os.utime(path, (1000.0, 1000.0))
        cext_mod.clear_modules()
        cext_mod.load_cext_module(1, kinds_axes)
        assert path.stat().st_mtime > 1000.0
