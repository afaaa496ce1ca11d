import math

import numpy as np
import pytest
from scipy.integrate import quad

from strata.lattice import Lattice
from strata.symbols import (
    damping_antiderivative,
    damping_coeff,
    damping_integral,
    nonzero_mode_decay_bound_check,
    orr_amplification,
    semigroup,
    transport_symbol,
    velocity_symbol,
    zero_mode_rate,
)


def _scalar(triple, idx=()):
    return tuple(float(np.asarray(v)[idx]) for v in triple)


def _reference_transport_symbol(t, k, eta, alpha):
    """Transport symbol with its own k = 0 branch: the oracle for transport_symbol."""
    k = np.asarray(k, dtype=float)
    eta = np.asarray(eta, dtype=float)
    alpha = np.asarray(alpha, dtype=float)
    k, eta, alpha = np.broadcast_arrays(k, eta, alpha)
    em = eta - k * t
    D = k * k + (eta - k * t) ** 2 + alpha * alpha
    R = eta * eta + alpha * alpha
    nonzero_x = k != 0
    invd2 = 1.0 / np.where(D > 0, D, 1.0) ** 2
    invr2 = 1.0 / np.where(R > 0, R, 1.0) ** 2
    ka = k * k + alpha * alpha
    u1 = np.where(nonzero_x, (t * ka + k * em) * invd2,
                  np.where(R > 0, t * alpha**2 * invr2, 0.0))
    u2 = np.where(nonzero_x, -ka * invd2,
                  np.where(R > 0, -(alpha**2) * invr2, 0.0))
    u3 = np.where(nonzero_x, em * alpha * invd2,
                  np.where(R > 0, eta * alpha * invr2, 0.0))
    return u1, u2, u3


class TestVelocitySymbol:
    def test_hand_values(self):
        assert _scalar(velocity_symbol(0.0, 1.0, 0.0, 0.0)) == (0.0, -1.0, 0.0)
        # critical time t = eta/k makes D = 1 again
        assert _scalar(velocity_symbol(2.0, 1.0, 2.0, 0.0)) == (0.0, -1.0, 0.0)

    def test_mean_mode_is_zero(self):
        for t in (0.0, 1.0, 17.3):
            assert _scalar(velocity_symbol(t, 0.0, 0.0, 0.0)) == (0.0, 0.0, 0.0)

    def test_even_under_frequency_flip(self):
        t = 2.7
        v = velocity_symbol(t, 3.0, -1.0, 2.0)
        w = velocity_symbol(t, -3.0, 1.0, -2.0)
        for a, b in zip(v, w):
            assert float(a) == pytest.approx(float(b), rel=1e-15)

    def test_decay_slopes(self):
        # windowed fits carry an O(eta/(k t_min)) bias, so eta/k stays small here
        t = np.geomspace(50, 500, 120)
        for (k, eta, al) in [(1, 0.0, 1), (2, 0.5, -1), (-1, -0.25, 2)]:
            v1, v2, v3 = velocity_symbol(t, float(k), eta, float(al))
            for v, target in ((np.abs(v1), -3.0), (np.abs(v2), -4.0), (np.abs(v3), -3.0)):
                slope = np.polyfit(np.log(t), np.log(v), 1)[0]
                assert slope == pytest.approx(target, abs=0.05)

    def test_orr_peak_ratio_exact(self):
        for eta in (10.0, 30.0):
            t = np.arange(0.0, 2 * eta + 0.25, 0.25)
            v2 = np.abs(velocity_symbol(t, np.ones_like(t), np.full_like(t, eta),
                                        np.zeros_like(t))[1])
            ratio = float(np.max(v2) / v2[0])
            assert ratio == pytest.approx((1 + eta**2) ** 2, rel=1e-12)
            assert abs(t[np.argmax(v2)] - eta) <= 0.25
            assert orr_amplification(1, eta) == (1 + eta**2) ** 2


class TestTransportSymbol:
    def test_hand_values(self):
        assert _scalar(transport_symbol(0.0, 1.0, 0.0, 1.0)) == (0.0, -0.5, 0.0)
        assert _scalar(transport_symbol(1.0, 0.0, 0.0, 1.0)) == (1.0, -1.0, 0.0)
        assert _scalar(transport_symbol(5.0, 0.0, 0.0, 0.0)) == (0.0, 0.0, 0.0)

    def test_zero_mode_liftup_growth(self):
        # streamwise component of the k=0 branch grows linearly in t
        u1a = float(transport_symbol(1.0, 0.0, 2.0, 1.0)[0])
        u1b = float(transport_symbol(10.0, 0.0, 2.0, 1.0)[0])
        assert u1b == pytest.approx(10 * u1a, rel=1e-12)

    def test_alpha_zero_zero_mode_vanishes(self):
        assert _scalar(transport_symbol(3.0, 0.0, 2.0, 0.0)) == (0.0, 0.0, 0.0)

    @pytest.mark.parametrize("t", [0.0, 0.05, 3.7, 50.0, 99.95, 1000.0])
    def test_matches_two_branch_reference_bitwise(self, t):
        lat = Lattice(32, 128, 32)
        got = transport_symbol(t, lat.kx, lat.eta, lat.alpha)
        ref = _reference_transport_symbol(t, lat.kx, lat.eta, lat.alpha)
        for g, r in zip(got, ref):
            assert np.array_equal(g, r)
            assert np.array_equal(np.signbit(g), np.signbit(r))


class TestDamping:
    def test_hand_values(self):
        assert float(damping_coeff(9.0, 0.0, 1.0, 1.0)) == pytest.approx(0.25)
        assert float(damping_coeff(2.0, 0.0, 3.0, 0.0)) == 0.0
        assert float(damping_coeff(1.0, 1.0, 1.0, 0.0)) == pytest.approx(1.0)
        assert float(damping_coeff(0.0, 0.0, 0.0, 0.0)) == 0.0

    def test_nonnegative(self):
        rng = np.random.default_rng(0)
        k = rng.integers(-5, 6, 100).astype(float)
        eta = rng.normal(0, 5, 100)
        al = rng.integers(-5, 6, 100).astype(float)
        assert np.all(damping_coeff(3.3, k, eta, al) >= 0)

    def test_integral_empty_interval(self):
        assert damping_integral(2.0, 2.0, 1, 5.0, 0) == 0.0

    @pytest.mark.parametrize("k,eta,al,t0,t1", [
        (1, 5.0, 0, 0.0, 10.0),
        (2, -3.0, 1, 1.0, 7.0),
        (-1, 2.0, 3, 0.0, 25.0),
        (3, 12.5, -2, 2.0, 9.0),
    ])
    def test_integral_matches_quadrature(self, k, eta, al, t0, t1):
        oracle, _ = quad(lambda s: float(damping_coeff(s, k, eta, al)), t0, t1,
                         epsabs=1e-13, epsrel=1e-13, limit=200)
        got = damping_integral(t0, t1, k, eta, al)
        assert got == pytest.approx(oracle, rel=1e-10, abs=1e-12)

    def test_integral_converges_for_nonzero_k(self):
        vals = [damping_integral(0.0, t1, 1, 0.0, 0) for t1 in (10, 100, 1000, 10000)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))  # monotone in t1
        assert vals[-1] == pytest.approx(vals[-2], rel=1e-4)  # finite limit
        assert vals[-1] < 1.0

    @pytest.mark.parametrize("eta,al,t0,t1", [
        (1.0, 1.0, 0.0, 1.0),
        (0.0, 0.5, 2.0, 9.5),
        (3.0, -2.0, 0.0, 40.0),
        (3.0, 0.0, 1.0, 5.0),
        (0.0, 0.0, 0.0, 10.0),
    ])
    def test_integral_at_k_zero_matches_quadrature(self, eta, al, t0, t1):
        oracle, _ = quad(lambda s: float(damping_coeff(s, 0, eta, al)), t0, t1,
                         epsabs=1e-13, epsrel=1e-13)
        got = damping_integral(t0, t1, 0, eta, al)
        assert got == pytest.approx(oracle, rel=1e-12, abs=1e-14)

    def test_integral_rejects_reversed_interval(self):
        with pytest.raises(ValueError):
            damping_integral(2.0, 1.0, 1, 0.0, 1)

    @pytest.mark.parametrize("t", [0.0, 0.05, 3.7, 100.0])
    def test_antiderivative_at_k_zero_is_rate_times_t(self, t):
        lat = Lattice(8, 64, 16)
        got = damping_antiderivative(t, 0.0, lat.eta, lat.alpha)
        assert got.shape == (1, 64, 16)
        assert np.array_equal(got, zero_mode_rate(lat.eta, lat.alpha) * t)
        assert got[0, 0, 0] == 0.0   # mean mode

    def test_antiderivative_broadcasts(self):
        lat = Lattice(8, 16, 8)
        t = np.array([0.5, 7.0]).reshape(2, 1, 1, 1)
        got = damping_antiderivative(t, lat.kx, lat.eta, lat.alpha)
        assert got.shape == (2, *lat.shape)
        assert got[1, 2, 3, 1] == pytest.approx(
            damping_antiderivative(7.0, 2.0, lat.eta[0, 3, 0], 1.0), rel=1e-15)


class TestZeroModeRate:
    @pytest.mark.parametrize("eta,al,rate", [
        (0.0, 1.0, 1.0),
        (1.0, 1.0, 0.25),
        (-1.0, 1.0, 0.25),
        (0.0, 0.5, 4.0),
        (2.0, -2.0, 1.0 / 16.0),
        (3.0, 0.0, 0.0),
        (0.0, 0.0, 0.0),
    ])
    def test_hand_values_are_k_zero_damping(self, eta, al, rate):
        assert zero_mode_rate(eta, al) == rate
        for t in (0.0, 2.5, 40.0):
            assert zero_mode_rate(eta, al) == damping_coeff(t, 0.0, eta, al)

    def test_k_zero_damping_within_one_ulp(self):
        # damping_coeff multiplies by the shared 1/D^2, zero_mode_rate divides
        # exactly as the per-site expressions it replaced did
        lat = Lattice(8, 64, 16)
        rate = zero_mode_rate(lat.eta, lat.alpha)
        assert rate.shape == (1, 64, 16)
        live = (lat.eta != 0) | (lat.alpha != 0)
        old = lat.alpha**2 / np.where(live, lat.eta**2 + lat.alpha**2, 1.0) ** 2
        assert np.array_equal(rate, old)
        np.testing.assert_array_max_ulp(rate, damping_coeff(7.0, 0.0, lat.eta, lat.alpha),
                                        maxulp=1)


class TestSemigroup:
    def test_hand_values(self):
        assert semigroup(0.0, 1.0, 1.0) == 1.0
        assert semigroup(7.0, 2.0, 0.0) == 1.0
        assert semigroup(4.0, 1.0, 1.0) == pytest.approx(math.exp(-1.0), rel=1e-15)

    @pytest.mark.parametrize("s,t,eta,al", [
        (1.0, 2.0, 1.0, 1.0),
        (0.5, 9.5, 3.0, 2.0),
        (100.0, 250.0, 0.25, 1.0),
    ])
    def test_semigroup_law(self, s, t, eta, al):
        lhs = semigroup(s + t, eta, al)
        rhs = semigroup(s, eta, al) * semigroup(t, eta, al)
        assert lhs == pytest.approx(rhs, rel=1e-14)

    def test_rejects_origin(self):
        with pytest.raises(ValueError):
            semigroup(1.0, 0.0, 0.0)


class TestDecayBounds:
    def test_baseline_mode(self):
        rep = nonzero_mode_decay_bound_check(1, 0.0, 0, np.linspace(0, 100, 2001))
        assert rep
        assert rep.constant <= 2.0

    def test_orr_mode_peak_location(self):
        t = np.linspace(0, 100, 4001)
        v2 = np.abs(velocity_symbol(t, np.ones_like(t), np.full_like(t, 50.0),
                                    np.zeros_like(t))[1])
        assert abs(t[np.argmax(v2)] - 50.0) < 0.1
        rep = nonzero_mode_decay_bound_check(1, 50.0, 0, t)
        assert rep.passed

    def test_sign_symmetry(self):
        t = np.linspace(0, 100, 1001)
        a = nonzero_mode_decay_bound_check(3, -1.0, 2, t)
        b = nonzero_mode_decay_bound_check(-3, 1.0, -2, t)
        assert a.constant == pytest.approx(b.constant, rel=1e-12)
        assert a.passed and b.passed

    def test_rejects_zero_mode(self):
        with pytest.raises(ValueError):
            nonzero_mode_decay_bound_check(0, 1.0, 1, np.linspace(0, 10, 11))
