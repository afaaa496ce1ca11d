"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines and timings as they complete.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest
from scipy.integrate import quad

from _hermitian import symmetrized
from strata.cli import main
from strata.config import SimConfig
from strata.diagnostics import compute_row
from strata.lattice import Lattice, SpectralField
from strata.simulate import SimState, init_field, run_simulation, step_linear, step_nonlinear
from strata.storage import checkpoint_bytes, read_csv_columns, state_from_checkpoint
from strata.symbols import damping_coeff, semigroup, velocity_symbol
from strata.toymodels import (
    fit_loglog_slope,
    liftup_growth,
    semigroup_bound_check,
    zero_mode_decay_bound,
)
from strata.weights import WeightParams, gevrey_log_norm, total_growth_check, weight_table, w_nr


@contextmanager
def criterion(num: int, budget_s: float, label: str):
    t0 = time.time()
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {num}: {label} ({time.time() - t0:.1f}s)")
        raise
    elapsed = time.time() - t0
    print(f"[PASS] criterion {num}: {label} ({elapsed:.1f}s, budget {budget_s:g}s)")
    assert elapsed < budget_s, f"criterion {num} exceeded its {budget_s}s budget"


def test_criterion_1_symbol_decay_rates():
    with criterion(1, 1.0, "symbol decay rates -3/-4/-3 over t in [50,500]"):
        t = np.geomspace(50.0, 500.0, 160)
        freqs = [(k, eta, al)
                 for k in (1, 2, 3, 4, 5)
                 for eta in (0.0, 0.25)
                 for al in (1, -2)]
        assert len(freqs) == 20
        lt = np.log(t)
        for k, eta, al in freqs:
            v1, v2, v3 = velocity_symbol(t, float(k), eta, float(al))
            s1 = np.polyfit(lt, np.log(np.abs(v1)), 1)[0]
            s2 = np.polyfit(lt, np.log(np.abs(v2)), 1)[0]
            s3 = np.polyfit(lt, np.log(np.abs(v3)), 1)[0]
            assert s1 == pytest.approx(-3.0, abs=0.05), (k, eta, al)
            assert s2 == pytest.approx(-4.0, abs=0.05), (k, eta, al)
            assert s3 == pytest.approx(-3.0, abs=0.05), (k, eta, al)


def test_criterion_2_orr_amplification():
    with criterion(2, 1.0, "Orr peak ratio (1+eta^2)^2 at t = eta/k"):
        dt = 0.25
        for eta in (10.0, 30.0, 100.0):
            t = np.arange(0.0, 2.0 * eta + dt, dt)
            v2 = np.abs(velocity_symbol(t, np.ones_like(t), np.full_like(t, eta),
                                        np.zeros_like(t))[1])
            ratio = float(np.max(v2) / v2[0])
            assert ratio == pytest.approx((1.0 + eta**2) ** 2, rel=1e-10)
            assert abs(float(t[np.argmax(v2)]) - eta) <= dt


def test_criterion_3_zero_mode_semigroup_bounds():
    with criterion(3, 10.0, "zero-mode <t>^3 bound and uniform semigroup constants"):
        grid = [(float(e), a) for e in range(2, 12) for a in range(1, 11)]
        assert len(grid) == 100
        constants = []
        for eta, al in grid:
            rep = zero_mode_decay_bound(eta, al, t_max=1e4, n_t=50)
            constants.append(rep.constant)
        c_single = max(constants)
        assert c_single <= 50.0
        for m in (0.0, 1.5, 2.5, 3.0):
            rep = semigroup_bound_check(grid, m)
            assert rep.spread < 0.05, f"m={m} spread {rep.spread:.3%}"


def test_criterion_4_liftup_growth():
    with criterion(4, 30.0, "lift-up envelope exponent 1.5 over t in [10,1e3]"):
        t = np.geomspace(10.0, 1e3, 60)
        env, fit = liftup_growth(1e-3, np.arange(0.5, 40.01, 0.25), range(1, 15), t)
        assert fit.exponent == pytest.approx(1.5, abs=0.1)
        assert fit.r2 > 0.99


def test_criterion_5_weight_machinery():
    with criterion(5, 60.0, "total growth, continuity, switch sweep, spot values"):
        # total-growth bound with K <= 10 for three coupling strengths
        for cs in (0.5, 1.0, 2.0):
            rep = total_growth_check(1e4, WeightParams(c_star=cs))
            assert rep.passed and rep.constant <= 10.0, (cs, rep.constant)
        # continuity of w at every breakpoint
        for iv in (2.0, 3.7, 10.0, 33.0, 144.0, 1000.0, 9999.5):
            for cs in (0.5, 1.0, 2.0):
                assert weight_table(iv, cs).continuity_defect() <= 1e-12
        # dominant-selector Lipschitz inequality: 1e6 random pairs, no violations
        rng = np.random.default_rng(2024)
        n = 10**6
        k1, k2 = rng.integers(-60, 61, (2, n)).astype(float)
        a1, a2 = rng.integers(-60, 61, (2, n)).astype(float)
        e1, e2 = 0.25 * rng.integers(-240, 241, (2, n)).astype(float)
        m1 = np.maximum(np.abs(k1), np.maximum(np.abs(e1), np.abs(a1)))
        m2 = np.maximum(np.abs(k2), np.maximum(np.abs(e2), np.abs(a2)))
        lhs = np.abs(m1 - m2)
        rhs = np.abs(k1 - k2) + np.abs(e1 - e2) + np.abs(a1 - a2)
        violations = int(np.sum(lhs > rhs + 1e-9))
        assert violations == 0
        # hand-recursion spot values at c_star = 1
        p1 = WeightParams(c_star=1.0)
        assert w_nr(10.0, 10.0, p1) == pytest.approx(0.1, rel=1e-12)
        assert w_nr(7.5, 10.0, p1) == pytest.approx(1.0e-3, rel=1e-12)


def test_criterion_6_linear_solver_exactness():
    with criterion(6, 10.0, "exact per-mode linear solves and RK4 order 4"):
        # k = 0: closed-form semigroup to 1e-12 through repeated stepping
        lat = Lattice(8, 16, 8)
        c = np.zeros(lat.shape, complex)
        c[0, 2, 1] = 1.0
        c[0, -2, -1] = 1.0
        st = SimState(0.0, SpectralField(lat, c))
        for _ in range(50):
            st = step_linear(st, 0.2)
        eta = 2 * lat.delta_eta
        assert abs(st.field.coeffs[0, 2, 1]) == pytest.approx(
            semigroup(st.t, eta, 1.0), rel=1e-12)

        # k != 0: quadrature oracle to 1e-10
        c = np.zeros(lat.shape, complex)
        c[2, 3, 1] = 1.0
        c[-2, -3, -1] = 1.0
        st = SimState(0.0, SpectralField(lat, c))
        for _ in range(30):
            st = step_linear(st, 0.5)
        oracle, _ = quad(lambda s: float(damping_coeff(s, 2, 3 * lat.delta_eta, 1)),
                         0.0, st.t, epsabs=1e-13, epsrel=1e-13)
        assert abs(st.field.coeffs[2, 3, 1]) == pytest.approx(math.exp(-oracle),
                                                              rel=1e-10)

        # integrating-factor RK4 order from a dt-refinement study
        cfg = SimConfig(nx=8, ny=16, nz=8, epsilon=0.5, dt=0.1, t_end=2.0,
                        recipe="random", init_kmax=2, mode="nonlinear")

        def advance(dt):
            s = init_field(cfg)
            for _ in range(round(2.0 / dt)):
                s = step_nonlinear(s, dt, cfg.dealias)
            return s.field.coeffs

        ref = advance(0.003125)
        errs = [float(np.sqrt(np.sum(np.abs(advance(dt) - ref) ** 2)))
                for dt in (0.2, 0.1, 0.05)]
        for e_coarse, e_fine in zip(errs, errs[1:]):
            order = math.log2(e_coarse / e_fine)
            assert order == pytest.approx(4.0, abs=0.2)


def test_criterion_7_nonlinear_desk_run():
    with criterion(7, 1200.0, "desk-scale nonlinear run: conservation + decay"):
        cfg = SimConfig(mode="nonlinear", epsilon=1e-3, dt=0.1, t_end=100.0,
                        output_every=1.0, seed=0)
        assert cfg.lattice.shape == (32, 128, 32)
        params = cfg.weight_params
        rows = []
        s5_log = []

        def on_row(state):
            rows.append(compute_row(state, params))
            s5_log.append(gevrey_log_norm(state.field, params.sigma(5), state.t,
                                          params))

        run_simulation(cfg, on_row=on_row)
        theta_scale = max(r.theta_l2 for r in rows)
        assert max(r.mass_mode for r in rows) < 1e-10 * theta_scale
        assert max(r.reality_err for r in rows) < 1e-10
        # the low weighted norm must stay within a fixed multiple of its
        # initial value over the whole run
        ratios = [math.exp(ln - s5_log[0]) for ln in s5_log]
        assert max(ratios) <= 4.0
        # inviscid-damping decay of the non-zero-mode vertical velocity
        ts = np.array([r.t for r in rows])
        u2 = np.array([r.u2_nonzero_l2 for r in rows])
        sel = (ts >= 30.0) & (ts <= 100.0)
        slope = np.polyfit(np.log(ts[sel]), np.log(u2[sel]), 1)[0]
        assert slope <= -3.5, f"U2 nonzero slope {slope:.3f}"


def test_criterion_8_determinism_and_io(tmp_path):
    with criterion(8, 60.0, "byte-identical reruns, bit-exact checkpoints, golden load"):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[lattice]\nnx = 8\nny = 16\nnz = 8\n"
                       "[init]\nrecipe = random\nseed = 5\ninit_kmax = 2\n"
                       "[run]\nepsilon = 1e-3\ndt = 0.1\nt_end = 2.0\n")
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["nonlinear", str(cfg), "--out", str(out_a), "--quiet"]) == 0
        assert main(["nonlinear", str(cfg), "--out", str(out_b), "--quiet"]) == 0
        bytes_a = (out_a / "nonlinear_diagnostics.csv").read_bytes()
        assert bytes_a == (out_b / "nonlinear_diagnostics.csv").read_bytes()

        # checkpoint round trip is bit-exact
        rng = np.random.default_rng(12)
        lat = Lattice(8, 16, 8)
        c = rng.normal(size=lat.shape) + 1j * rng.normal(size=lat.shape)
        st = SimState(4.25, symmetrized(SpectralField(lat, c)))
        blob = checkpoint_bytes(st)
        back = state_from_checkpoint(blob)
        assert back.t == st.t
        assert np.array_equal(back.field.coeffs, st.field.coeffs)
        assert checkpoint_bytes(back) == blob

        # golden little-endian file crafted independently of the writer
        import struct
        coeffs = (np.arange(8, dtype=np.complex128) * (1 - 0.5j)).reshape(2, 2, 2)
        golden = (b"STCV" + struct.pack("<I", 1) + struct.pack("<III", 2, 2, 2)
                  + struct.pack("<d", 8 * math.pi) + struct.pack("<d", 0.75))
        for v in coeffs.ravel(order="C"):
            golden += struct.pack("<dd", v.real, v.imag)
        gst = state_from_checkpoint(golden)
        assert gst.t == 0.75
        assert np.array_equal(gst.field.coeffs, coeffs)
