import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strata.lattice import Lattice, SpectralField, iota
from strata.weights import (
    _SWEEP_CHUNK,
    LatticeWeights,
    WeightParams,
    _draw_samples,
    _lemma_log_ratios,
    a_multiplier,
    b_multiplier,
    critical_times,
    gevrey_log_norm,
    gevrey_norm,
    lambda_t,
    lattice_weights,
    log_w_k,
    ratio_lemma_sweep,
    total_growth_check,
    w_k,
    w_nr,
    w_r,
    weight_table,
)

P = WeightParams()


# Scalar reference implementations: the per-call weight code that the
# array-valued evaluator replaced, kept as oracles on identical inputs.


def _reference_interval_index(table, t):
    if t >= table.t_ell[0] or t < table.t_ell[table.ell_max]:
        return 0
    lo, hi = 1, table.ell_max
    while lo < hi:
        mid = (lo + hi) // 2
        if t > table.t_ell[mid]:
            hi = mid
        else:
            lo = mid + 1
    return lo


def _reference_log_wnr(table, t):
    if t >= table.t_ell[0]:
        return 0.0
    if t <= table.t_ell[table.ell_max]:
        return table.log_floor
    ell = _reference_interval_index(table, t)
    p = table.peaks[ell - 1]
    if t >= p:
        base = (ell * ell / table.iota) * (1.0 + table.b_ell[ell] * (t - p))
        return table.c_star * math.log(base) + table.lv_break[ell - 1]
    return -(1.0 + table.c_star) * math.log(1.0 + table.a_ell[ell] * (p - t)) + table.lv_peak[ell]


def _reference_log_wr(table, t):
    ell = _reference_interval_index(table, t)
    if ell == 0:
        return _reference_log_wnr(table, t)
    p = table.peaks[ell - 1]
    coef = table.b_ell[ell] if t >= p else table.a_ell[ell]
    return (math.log(ell * ell / table.iota)
            + math.log(1.0 + coef * abs(t - p)) + _reference_log_wnr(table, t))


def _reference_resonant(t, k, iota_val, p):
    if k == 0 or abs(iota_val) <= 1.0 or k * iota_val <= 0:
        return False
    table = weight_table(abs(float(iota_val)), p.c_star)
    ell = _reference_interval_index(table, t)
    return bool(ell) and bool(table.resonant[ell]) and ell == abs(k)


def _reference_select(t, k, iota_val, p):
    if abs(iota_val) <= 1.0:
        return 0.0
    table = weight_table(abs(float(iota_val)), p.c_star)
    if _reference_resonant(t, k, iota_val, p):
        return _reference_log_wr(table, t)
    return _reference_log_wnr(table, t)


def _reference_log_w_k(t, k, eta, alpha, p):
    return _reference_select(t, k, iota(k, eta, alpha), p)


def _reference_piece_bounds(table, t):
    if t >= table.t_ell[0]:
        return table.t_ell[0], math.inf
    if t <= table.t_ell[table.ell_max]:
        return 0.0, table.t_ell[table.ell_max]
    ell = _reference_interval_index(table, t)
    p = table.peaks[ell - 1]
    if t >= p:
        return p, table.t_ell[ell - 1]
    return table.t_ell[ell], p


def _reference_dlogw_dt(lattice, p, t):
    """One-sided difference of log w_k, snapped inside the smooth piece."""
    iv = lattice.iota_vals.ravel()
    kk = np.broadcast_to(lattice.kx, lattice.shape).ravel()
    out = np.zeros(lattice.size)
    h0 = 1e-4 * max(1.0, t)
    for val in np.unique(np.abs(iv)):
        if val <= 1.0:
            continue
        idx = np.nonzero(np.abs(iv) == val)[0]
        table = weight_table(float(val), p.c_star)
        lo, hi = _reference_piece_bounds(table, t)
        if not math.isfinite(hi) or hi <= table.t_ell[table.ell_max]:
            continue
        h = min(h0, 0.25 * (hi - lo))
        t1 = min(max(t, lo + h), hi)
        t0 = t1 - h
        d_nr = max(0.0, (_reference_log_wnr(table, t1) - _reference_log_wnr(table, t0)) / h)
        ell = _reference_interval_index(table, t)
        if ell and table.resonant[ell]:
            res = (np.abs(kk[idx]) == ell) & (kk[idx] * iv[idx] > 0)
            d_r = max(0.0, (_reference_log_wr(table, t1) - _reference_log_wr(table, t0)) / h)
            out[idx] = np.where(res, d_r, d_nr)
        else:
            out[idx] = d_nr
    return out.reshape(lattice.shape)


def _reference_lemma_log_ratio(lemma, t, f1, f2, p):
    """Per-sample body of the ratio sweep: (counts, log(lhs/rhs))."""
    i1, i2 = iota(*f1), iota(*f2)
    df = abs(f1[0] - f2[0]) + abs(f1[1] - f2[1]) + abs(f1[2] - f2[2])
    mu = p.mu
    if lemma == "rNR":
        return True, (_reference_select(t, 0, i1, p) - _reference_select(t, 0, i2, p)
                      - mu * math.sqrt(df))
    log_lhs = _reference_log_w_k(t, *f2, p) - _reference_log_w_k(t, *f1, p)
    if lemma == "ratioJ":
        if t <= 10.0:
            return False, None
        k, l = f1[0], f2[0]
        in1 = _reference_resonant(t, k, i1, p)
        in2 = _reference_resonant(t, l, i2, p)
        if in1 and not in2 and k != l:
            log_factor = math.log(abs(i1) / (k * k * (1.0 + abs(t - i1 / k))))
        elif not in1 and in2:
            log_factor = math.log(l * l * (1.0 + abs(t - i2 / l)) / abs(i2))
        else:
            if df > (3.0 / 16.0) * (abs(f2[0]) + abs(f2[1]) + abs(f2[2])):
                return False, None
            log_factor = 0.0
        return True, log_lhs - (log_factor + 2.0 * mu * math.sqrt(df))
    cap = 0.5 * min(math.sqrt(abs(i1)), math.sqrt(abs(i2)))
    if cap <= 0:
        return False, None
    diff = abs(math.expm1(log_lhs))
    if diff == 0.0:
        return True, -math.inf
    br = math.sqrt(1.0 + df * df)
    return True, math.log(diff) - (math.log(br / (math.sqrt(abs(i1)) + math.sqrt(abs(i2))))
                                   + 3.0 * mu * math.sqrt(df))


class TestParams:
    def test_mu(self):
        assert WeightParams(c_star=1.0).mu == 12.0
        assert WeightParams(c_star=0.5).mu == 8.0

    def test_validation(self):
        with pytest.raises(ValueError):
            WeightParams(s=0.4)
        with pytest.raises(ValueError):
            WeightParams(a=0.3)            # above min(s/4, s-1/2)
        with pytest.raises(ValueError):
            WeightParams(sigmas=(212, 182, 152, 122, 92, 62))
        with pytest.raises(ValueError):
            WeightParams(sigmas=(212, 190, 152, 122, 92, 62, 32))  # gap 22 < 30
        with pytest.raises(ValueError):
            WeightParams(sigmas=(182, 152, 122, 92, 62, 32, 1))    # last < 2
        with pytest.raises(ValueError):
            WeightParams(c_star=-1.0)

    def test_sigma_ladder_index(self):
        assert P.sigma(1) == P.sigmas[0]
        assert P.sigma(7) == P.sigmas[6]
        for i in (0, -1, 8):
            with pytest.raises(ValueError):
                P.sigma(i)

    def test_lambda(self):
        assert lambda_t(0.0, P) == P.lambda_inf + P.delta_tilde
        assert lambda_t(1e30, P) == pytest.approx(P.lambda_inf, rel=1e-3)
        assert lambda_t(10.0, P) == pytest.approx(0.1 + 0.05 / 11**0.1, rel=1e-12)
        assert lambda_t(10.0, P) == pytest.approx(0.13934, abs=5e-6)
        # strictly decreasing
        ts = np.linspace(0, 50, 200)
        vals = [lambda_t(t, P) for t in ts]
        assert all(a > b for a, b in zip(vals, vals[1:]))


class TestIntervalTable:
    def test_iota_ten(self):
        table = critical_times(10.0, P)
        assert table.t_ell == pytest.approx([20.0, 7.5, 4.1666666667, 2.9166666667])
        assert table.b_ell[1] == pytest.approx(0.9)
        assert table.a_ell[1] == pytest.approx(3.6)
        # I_{1,10} = [7.5, 20] resonant; 2 sqrt(10) > t_2 kills the others
        assert list(table.resonant) == [False, True, False, False]

    def test_breakpoints_strictly_decreasing(self):
        for iv in (5.0, 10.0, 77.3, 1000.0):
            table = critical_times(iv, P)
            assert np.all(np.diff(table.t_ell) < 0)
            # peaks sit inside their intervals
            for ell in range(1, table.ell_max + 1):
                assert table.t_ell[ell] < table.peaks[ell - 1] < table.t_ell[ell - 1]

    def test_small_iota_empty(self):
        assert critical_times(1.0, P) is None
        assert critical_times(-0.5, P) is None

    def test_sign_symmetry(self):
        ts = np.linspace(0, 25, 101)
        for t in ts:
            assert w_nr(t, -10.0, P) == w_nr(t, 10.0, P)
            assert w_r(t, -10.0, P) == w_r(t, 10.0, P)


class TestWeightValues:
    def test_hand_recursion_spots(self):
        assert w_nr(25.0, 10.0, P) == 1.0
        assert w_nr(10.0, 10.0, P) == pytest.approx(0.1, rel=1e-12)
        assert w_nr(7.5, 10.0, P) == pytest.approx(1.0e-3, rel=1e-12)
        assert w_r(10.0, 10.0, P) == pytest.approx(0.01, rel=1e-12)
        assert 1.0 / w_nr(0.0, 10.0, P) == pytest.approx(2.1433e4, rel=1e-4)

    def test_trivial_regions(self):
        assert w_nr(3.0, 0.5, P) == 1.0
        assert w_r(3.0, 1.0, P) == 1.0
        assert w_k(100.0, 3, 40.0, 1.0, P) == 1.0   # t >= 2|iota|

    def test_frozen_below_last_breakpoint(self):
        table = weight_table(10.0, 1.0)
        t_e = table.t_ell[-1]
        assert w_nr(0.0, 10.0, P) == w_nr(t_e, 10.0, P)
        assert w_nr(0.5 * t_e, 10.0, P) == w_nr(t_e, 10.0, P)

    def test_continuity_at_breakpoints(self):
        for iv in (2.0, 10.0, 30.5, 144.0, 1000.0):
            for cs in (0.5, 1.0, 2.0):
                assert weight_table(iv, cs).continuity_defect() <= 1e-12

    def test_monotone_on_active_range(self):
        for iv in (10.0, 55.0):
            table = weight_table(iv, 1.0)
            ts = np.linspace(table.t_ell[-1], 2 * iv, 500)
            vals = [table.wnr(t) for t in ts]
            assert all(b >= a * (1 - 1e-12) for a, b in zip(vals, vals[1:]))

    def test_wr_wnr_exact_ratio_on_right_half(self):
        table = weight_table(10.0, 1.0)
        # right half of the ell=1 interval is [10, 20]
        for t in (10.0, 12.5, 16.0, 19.9):
            expect = (1.0 / 10.0) * (1.0 + table.b_ell[1] * (t - 10.0))
            assert table.wr(t) / table.wnr(t) == pytest.approx(expect, rel=1e-12)
            assert table.wr(t) <= table.wnr(t) * (1 + 1e-12)

    def test_w_k_selection(self):
        # k = 0 always takes the non-resonant branch
        for t in (3.0, 8.0, 15.0, 25.0):
            assert w_k(t, 0, 10.0, 0.0, P) == w_nr(t, 10.0, P)
        # t = 8 sits in the resonant interval I_{1,10}
        assert w_k(8.0, 1, 10.0, 0.0, P) == w_r(8.0, 10.0, P)
        # mismatched interval index or opposite signs take w_NR
        assert w_k(8.0, 2, 10.0, 0.0, P) == w_nr(8.0, 10.0, P)
        assert w_k(8.0, -1, 10.0, 0.0, P) == w_nr(8.0, 10.0, P)

    def test_resonant_intervals_have_order_one_coefficients(self):
        # resonance forces ell <= ~sqrt(iota)/2, which keeps the interval
        # coefficients a and b of order one
        for iv in (9.0, 30.0, 100.0, 1234.5, 9000.0):
            table = weight_table(iv, 1.0)
            for ell in range(1, table.ell_max + 1):
                if table.resonant[ell]:
                    assert ell <= 0.51 * math.sqrt(iv) + 1.0
                    assert table.a_ell[ell] >= 0.5
                    if ell >= 2:
                        assert table.b_ell[ell] >= 0.5

    def test_dlogw_tracks_inverse_distance_to_peak(self):
        # on a resonant interval the relative growth rate of w behaves like
        # 1/(1 + |t - iota/ell|) up to order-one factors
        lat = Lattice(4, 128, 4, ly=0.8 * math.pi)   # eta = 10 at j = 4
        lw = LatticeWeights(lat, P)
        table = weight_table(10.0, 1.0)
        for t in (8.0, 9.5, 10.5, 12.0, 16.0, 19.0):
            d = lw.dlogw_dt(t)[0, 4, 0]
            ref = 1.0 / (1.0 + abs(t - 10.0))
            assert 0.2 * ref <= d <= 5.0 * ref, (t, d, ref)

    def test_w_k_joint_evenness(self):
        # simultaneous flip of k and the frequency leaves the weight unchanged,
        # which is what Hermitian symmetry of the A-multiplier needs
        rng = np.random.default_rng(11)
        for _ in range(200):
            k = int(rng.integers(-6, 7))
            eta = 0.25 * int(rng.integers(-80, 81))
            al = int(rng.integers(-6, 7))
            t = float(rng.uniform(0, 2.5 * max(1.0, abs(iota(k, eta, al)))))
            assert log_w_k(t, k, eta, al, P) == pytest.approx(
                log_w_k(t, -k, -eta, -al, P), abs=1e-13)


@settings(max_examples=200, deadline=None)
@given(st.floats(1.5, 500.0), st.floats(0.0, 1.2))
def test_wnr_bounds_property(iota_abs, frac):
    # 1 >= w_NR >= floor value everywhere, and w = 1 beyond 2 iota
    t = frac * 2.2 * iota_abs
    table = weight_table(float(iota_abs), 1.0)
    val = table.wnr(t)
    assert table.floor_value * (1 - 1e-12) <= val <= 1.0 + 1e-12
    if t >= 2 * iota_abs:
        assert val == 1.0


class TestMultipliers:
    def test_b_multiplier(self):
        assert b_multiplier(0.0, 0) == 1.0
        assert b_multiplier(4.0, 0) == pytest.approx(math.sqrt(5.0), rel=1e-15)
        assert b_multiplier(0.0, 2) == pytest.approx(math.sqrt(5.0), rel=1e-15)

    def test_a_trivial_mode(self):
        assert a_multiplier(7.0, 3.0, 0, 0.0, 0, P) == 1.0

    def test_a_collapse_after_critical_window(self):
        # J = 1 for t >= 2|iota|
        sigma, t = 3.0, 50.0
        got = a_multiplier(sigma, t, 2, 5.0, 1, P)
        l1 = 2 + 5.0 + 1
        br = math.sqrt(1 + 4 + 25 + 1)
        assert got == pytest.approx(math.exp(lambda_t(t, P) * l1) * br**sigma, rel=1e-12)

    def test_a_hand_value(self):
        # lambda pinned at 0.1 by a tiny delta_tilde
        p = WeightParams(lambda_inf=0.1, delta_tilde=1e-13, a=0.1)
        got = a_multiplier(2.0, 10.0, 0, 0.0, 1, p)
        assert got == pytest.approx(2.0 * math.exp(0.1), rel=1e-10)
        assert got == pytest.approx(2.21034, abs=5e-6)

    def test_j_at_least_one(self):
        rng = np.random.default_rng(4)
        for _ in range(300):
            k = int(rng.integers(-8, 9))
            eta = 0.25 * int(rng.integers(-60, 61))
            al = int(rng.integers(-8, 9))
            t = float(rng.uniform(0, 40))
            assert log_w_k(t, k, eta, al, P) <= 1e-13  # w <= 1  <=>  J >= 1


class TestGevreyNorm:
    def _unit_mode_field(self):
        lat = Lattice(4, 4, 4, ly=2 * math.pi)  # delta_eta = 1
        c = np.zeros(lat.shape, complex)
        c[0, 0, 1] = 1.0
        return SpectralField(lat, c)

    def test_zero_field(self):
        lat = Lattice(4, 4, 4)
        assert gevrey_norm(SpectralField.zeros(lat), 2.0, 0.0, P) == 0.0
        assert gevrey_log_norm(SpectralField.zeros(lat), 2.0, 0.0, P) == -math.inf

    def test_unit_mode_hand_value(self):
        p = WeightParams(lambda_inf=0.1, delta_tilde=1e-13, a=0.1)
        f = self._unit_mode_field()
        assert gevrey_norm(f, 2.0, 5.0, p) == pytest.approx(2 * math.exp(0.1), rel=1e-10)

    def test_two_modes_pythagoras(self):
        p = WeightParams(lambda_inf=0.1, delta_tilde=1e-13, a=0.1)
        lat = Lattice(4, 4, 4, ly=2 * math.pi)
        c = np.zeros(lat.shape, complex)
        c[0, 0, 1] = 1.0
        f1 = gevrey_norm(SpectralField(lat, c.copy()), 2.0, 1.0, p)
        c2 = np.zeros(lat.shape, complex)
        c2[1, 0, 0] = 1.0
        f2 = gevrey_norm(SpectralField(lat, c2), 2.0, 1.0, p)
        c[1, 0, 0] = 1.0
        both = gevrey_norm(SpectralField(lat, c), 2.0, 1.0, p)
        assert both == pytest.approx(math.hypot(f1, f2), rel=1e-12)

    def test_monotone_in_time_without_j(self):
        lat = Lattice(8, 8, 8)
        rng = np.random.default_rng(9)
        c = rng.normal(size=lat.shape) + 1j * rng.normal(size=lat.shape)
        f = SpectralField(lat, c).symmetrized()
        vals = [gevrey_log_norm(f, 4.0, t, P) for t in np.linspace(0, 30, 40)]
        assert all(b <= a + 1e-13 for a, b in zip(vals, vals[1:]))

    def test_large_sigma_stays_finite_in_log_space(self):
        lat = Lattice(16, 16, 16)
        rng = np.random.default_rng(2)
        c = rng.normal(size=lat.shape) * 1e-3
        f = SpectralField(lat, c.astype(complex)).symmetrized()
        ln = gevrey_log_norm(f, P.sigma(1), 0.0, P, use_j=True)
        assert math.isfinite(ln)
        assert ln > 100.0  # far beyond float64 in linear space


class TestLatticeWeights:
    def test_matches_scalar_w_k(self):
        lat = Lattice(8, 16, 8)
        lw = lattice_weights(lat, P)
        K = np.broadcast_to(lat.kx, lat.shape)
        E = np.broadcast_to(lat.eta, lat.shape)
        A = np.broadcast_to(lat.alpha, lat.shape)
        for t in (0.0, 3.7, 8.0, 13.0):
            grid = np.exp(lw.log_w(t))
            for idx in [(0, 0, 0), (1, 3, 2), (3, 8, 1), (7, 15, 7), (4, 4, 4)]:
                assert grid[idx] == pytest.approx(
                    w_k(t, int(K[idx]), float(E[idx]), int(A[idx]), P), rel=1e-12)

    def test_dlogw_nonnegative_and_consistent(self):
        lat = Lattice(8, 16, 8)
        lw = LatticeWeights(lat, P)
        for t in (2.5, 5.0, 9.0, 14.0):
            d = lw.dlogw_dt(t)
            assert np.all(d >= 0)
        # on the right half of I_{1,10} the rate is the closed form c* b/(1 + b(t - p))
        table = weight_table(10.0, 1.0)
        t = 11.0
        expect = P.c_star * table.b_ell[1] / (1.0 + table.b_ell[1] * (t - 10.0))
        lat2 = Lattice(4, 128, 4, ly=0.8 * math.pi)  # contains eta = 10 at j = 4
        lw2 = LatticeWeights(lat2, P)
        d = lw2.dlogw_dt(t)
        j = 4
        assert lat2.eta.ravel()[j] == pytest.approx(10.0)
        assert d[0, j, 0] == pytest.approx(expect, rel=1e-12)


def _breakpoint_times(table):
    """Every t_ell and peak of a table, and one ulp either side of each."""
    marks = np.concatenate([table.t_ell, table.peaks])
    return np.concatenate([np.nextafter(marks, -np.inf), marks, np.nextafter(marks, np.inf)])


class TestAgainstScalarReference:
    @pytest.mark.parametrize("c_star", [0.5, 1.0, 2.0])
    def test_log_w_k(self, c_star):
        p = WeightParams(c_star=c_star)
        rng = np.random.default_rng(17)
        n = 20_000
        k = rng.integers(-40, 41, n)
        eta = 0.25 * rng.integers(-160, 161, n)
        al = rng.integers(-40, 41, n)
        t = rng.uniform(0.0, 2.2 * np.maximum(np.abs(iota(k, eta, al)), 1.0))
        cols = [(t, k, eta, al)]
        for j in range(5, 161):
            eta_j = 0.25 * j * (-1) ** j
            ts = _breakpoint_times(weight_table(abs(eta_j), c_star))
            for kk in (-2, -1, 0, 1, 2):
                cols.append((ts, np.full(ts.size, kk), np.full(ts.size, eta_j),
                             np.zeros(ts.size, dtype=int)))
        t, k, eta, al = (np.concatenate(c) for c in zip(*cols))
        tuples = [(float(a), int(b), float(c), int(d)) for a, b, c, d in zip(t, k, eta, al)]
        expect = np.array([_reference_log_w_k(*x, p) for x in tuples])
        assert np.max(np.abs(log_w_k(t, k, eta, al, p) - expect)) <= 1e-14
        # both branches are exercised
        resonant = sum(_reference_resonant(a, b, iota(b, c, d), p) for a, b, c, d in tuples)
        assert 1000 < resonant < len(tuples) // 2

    @pytest.mark.parametrize("c_star", [0.5, 1.0, 2.0])
    def test_lattice_log_w(self, c_star):
        p = WeightParams(c_star=c_star)
        lat = Lattice(4, 32, 4, ly=0.8 * math.pi)   # eta = 2.5 j, |iota| up to 40
        lw = LatticeWeights(lat, p)
        kk = np.broadcast_to(lat.kx, lat.shape).ravel().tolist()
        iv = lat.iota_vals.ravel().tolist()
        pairs = set(zip(kk, iv))
        vals = sorted({abs(v) for v in iv if abs(v) > 1.0})
        times = np.concatenate([_breakpoint_times(weight_table(v, c_star)) for v in vals]
                               + [np.random.default_rng(3).uniform(0.0, 90.0, 20)])
        for t in times.tolist():
            ref = {pair: _reference_select(t, *pair, p) for pair in pairs}
            expect = np.array([ref[pair] for pair in zip(kk, iv)])
            assert np.max(np.abs(lw.log_w(t).ravel() - expect)) <= 1e-14, t

    @pytest.mark.parametrize("c_star", [0.5, 1.0, 2.0])
    def test_closed_form_dlogw(self, c_star):
        p = WeightParams(c_star=c_star)
        lat = Lattice(4, 32, 4, ly=0.8 * math.pi)
        lw = LatticeWeights(lat, p)
        abs_iota = np.abs(lat.iota_vals.ravel())
        marks = {v: np.concatenate([weight_table(v, c_star).t_ell, weight_table(v, c_star).peaks])
                 for v in np.unique(abs_iota) if v > 1.0}
        times = np.concatenate([np.linspace(0.05, 85.0, 150), *marks.values()])
        h = 1e-6
        for t in times.tolist():
            d = lw.dlogw_dt(t).ravel()
            assert np.all(d >= 0)
            assert np.array_equal(d > 0, _reference_dlogw_dt(lat, p, t).ravel() > 0), t
            central = (lw.log_w(t + h) - lw.log_w(t - h)).ravel() / (2.0 * h)
            smooth = np.array([v <= 1.0 or np.min(np.abs(marks[v] - t)) >= 1e-3
                               for v in abs_iota])
            np.testing.assert_allclose(d[smooth], central[smooth], rtol=1e-6, atol=0.0)


class TestBatchedSweep:
    @staticmethod
    def _reference(lemma, t, f1, f2, i):
        a = (int(f1[0][i]), float(f1[1][i]), int(f1[2][i]))
        b = (int(f2[0][i]), float(f2[1][i]), int(f2[2][i]))
        return _reference_lemma_log_ratio(lemma, float(t[i]), a, b, P), (float(t[i]), *a, *b)

    @pytest.mark.parametrize("lemma", ["rNR", "ratioJ", "shortTime"])
    def test_matches_per_sample_reference(self, lemma):
        t, f1, f2 = _draw_samples(np.random.default_rng(5), 3000, lemma)
        log_ratio, ok = _lemma_log_ratios(lemma, t, f1, f2, P)
        ref = [self._reference(lemma, t, f1, f2, i)[0] for i in range(t.size)]
        assert ok.tolist() == [counts for counts, _ in ref]
        expect = np.array([r for counts, r in ref if counts])
        np.testing.assert_allclose(log_ratio[ok], expect, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("lemma", ["rNR", "ratioJ", "shortTime"])
    def test_sweep_reports_reference_supremum(self, lemma):
        rep = ratio_lemma_sweep(lemma, _SWEEP_CHUNK + 500, P, seed=3)
        rng = np.random.default_rng(3)
        used, best, worst = 0, -math.inf, ()
        for size in (_SWEEP_CHUNK, 500):
            t, f1, f2 = _draw_samples(rng, size, lemma)
            for i in range(size):
                (counts, r), tup = self._reference(lemma, t, f1, f2, i)
                used += counts
                if counts and r > best:
                    best, worst = r, tup
        assert rep.samples_used == used
        assert rep.empirical_constant == pytest.approx(math.exp(best), rel=1e-11)
        # the CSV renders Python numbers, as before the sweep was batched
        assert [type(x) for x in rep.worst_tuple] == [float, int, float, int, int, float, int]
        wt = rep.worst_tuple
        _, at_worst = _reference_lemma_log_ratio(lemma, wt[0], wt[1:4], wt[4:], P)
        assert at_worst == pytest.approx(best, abs=1e-12)


class TestSweeps:
    def test_total_growth_small(self):
        for cs in (0.5, 1.0, 2.0):
            rep = total_growth_check(500.0, WeightParams(c_star=cs), n_grid=120)
            assert rep.passed
            assert rep.constant <= 10.0

    def test_identity_pair_ratio_is_one(self):
        # lhs = rhs = 1 for f1 = f2 in the w_NR ratio estimate
        f = (2, 3.0, 1)
        t = 4.2
        assert w_nr(t, iota(*f), P) / w_nr(t, iota(*f), P) == 1.0

    def test_sweeps_finite_and_stable(self):
        for lemma in ("rNR", "ratioJ", "shortTime"):
            small = ratio_lemma_sweep(lemma, 2000, P, seed=1)
            big = ratio_lemma_sweep(lemma, 8000, P, seed=1)
            assert math.isfinite(big.empirical_constant)
            assert big.samples_used > 0
            # growing the sample count must not blow the constant up
            assert big.empirical_constant <= max(small.empirical_constant * 2.0, 1.5)

    def test_unknown_lemma_rejected(self):
        with pytest.raises(ValueError):
            ratio_lemma_sweep("nope", 10, P)
