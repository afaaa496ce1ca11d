import math

import numpy as np
import pytest

from strata.toymodels import (
    FitError,
    fit_loglog_slope,
    liftup_growth,
    liftup_value,
    orr_toy_integrate,
    semigroup_bound_check,
    zero_mode_decay_bound,
    zero_mode_solution,
    _semigroup_integral,
)


class TestFit:
    def test_exact_power_laws(self):
        t = np.linspace(1, 100, 200)
        assert fit_loglog_slope(t, t**3).exponent == pytest.approx(3.0, abs=1e-10)
        assert fit_loglog_slope(t, t**-4.0).exponent == pytest.approx(-4.0, abs=1e-10)

    def test_noisy_power_law(self):
        t = np.linspace(1, 100, 400)
        fit = fit_loglog_slope(t, t**1.5 * (1 + 0.01 * np.sin(t)))
        assert fit.exponent == pytest.approx(1.5, abs=0.02)
        assert fit.r2 > 0.999

    def test_window_selection(self):
        t = np.linspace(1, 100, 400)
        v = np.where(t < 10, t**2, 10**2 * (t / 10) ** 3)
        fit = fit_loglog_slope(t, v, window=(20.0, 100.0))
        assert fit.exponent == pytest.approx(3.0, abs=1e-6)
        assert fit.window == (20.0, 100.0)

    def test_refuses_bad_fit(self):
        rng = np.random.default_rng(0)
        t = np.linspace(1, 100, 100)
        v = np.exp(rng.normal(0, 2.0, size=t.size))
        with pytest.raises(FitError):
            fit_loglog_slope(t, v)
        fit = fit_loglog_slope(t, v, min_r2=None)   # opt out for inspection
        assert fit.r2 < 0.99

    def test_requires_enough_positive_points(self):
        t = np.linspace(1, 10, 5)
        with pytest.raises(FitError):
            fit_loglog_slope(t, t**2)
        t = np.linspace(1, 10, 20)
        with pytest.raises(FitError):
            fit_loglog_slope(t, t - 5.0)   # nonpositive values

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_refuses_nonfinite_values(self, bad):
        t = np.linspace(1, 10, 20)
        v = t**2
        v[7] = bad
        with pytest.raises(FitError, match="finite"):
            fit_loglog_slope(t, v)
        with pytest.raises(FitError, match="finite"):
            fit_loglog_slope(t, v, min_r2=None)   # no r2 floor to hide behind

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_refuses_nonfinite_times(self, bad):
        t = np.linspace(1, 10, 20)
        t[7] = bad
        with pytest.raises(FitError, match="finite"):
            fit_loglog_slope(t, np.ones(20))
        with pytest.raises(FitError, match="finite"):
            fit_loglog_slope(t, np.ones(20), window=(1.0, 10.0))   # not dropped silently

    def test_nonfinite_value_outside_window_is_ignored(self):
        t = np.linspace(1, 10, 20)
        v = t**2
        v[0] = np.nan
        assert fit_loglog_slope(t, v, window=(2.0, 10.0)).exponent == pytest.approx(2.0)

    def test_constant_series(self):
        t = np.linspace(1, 10, 20)
        fit = fit_loglog_slope(t, np.full_like(t, 7.0))
        assert fit.exponent == pytest.approx(0.0, abs=1e-12)
        assert fit.r2 == 1.0


class TestOrrToy:
    def test_uncoupled(self):
        assert orr_toy_integrate(1, 100.0, 0.0) == (1.0, 1.0)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            orr_toy_integrate(0, 100.0, 1.0)
        with pytest.raises(ValueError):
            orr_toy_integrate(1, -100.0, 1.0)      # eta k <= 0
        with pytest.raises(ValueError):
            orr_toy_integrate(4, 10.0, 1.0)        # k > E(sqrt eta)
        for eta in (1.0, 0.5):
            with pytest.raises(ValueError):
                orr_toy_integrate(1, eta, 1.0)     # no weight table for |eta| <= 1

    def test_narrow_interval_bounded(self):
        # |eta| ~ k^2 means an O(1)-wide interval and O(exp(c kappa)) growth
        for kappa in (0.5, 1.0):
            amp_r, amp_nr = orr_toy_integrate(3, 10.0, kappa)
            assert max(amp_r, amp_nr) <= math.exp(4.0 * kappa)

    def test_monotone_in_kappa_and_eta(self):
        amps = [orr_toy_integrate(1, 1000.0, k)[1] for k in (0.25, 0.5, 1.0)]
        assert amps[0] < amps[1] < amps[2]
        amps = [orr_toy_integrate(1, eta, 1.0)[1] for eta in (100.0, 1000.0, 10000.0)]
        assert amps[0] < amps[1] < amps[2]

    def test_polynomial_growth_exponent(self):
        etas = np.geomspace(1e2, 1e5, 16)
        amp = [orr_toy_integrate(1, float(e), 1.0)[1] for e in etas]
        fit = fit_loglog_slope(etas, amp, min_r2=0.99)
        assert fit.exponent > 0.5
        # stability: the same exponent on the upper half of the range
        fit_hi = fit_loglog_slope(etas, amp, window=(1e3, 1e5), min_r2=0.99)
        assert fit_hi.exponent == pytest.approx(fit.exponent, abs=0.3)


class TestZeroMode:
    def test_homogeneous_is_exact_exponential(self):
        sigma = 0.37
        for t in (0.0, 1.0, 5.0, 42.0):
            got = zero_mode_solution(t, sigma, theta0=1.0, forced=False)
            assert got == pytest.approx(math.exp(-sigma * t), rel=1e-12)

    def test_rejects_alpha_zero(self):
        with pytest.raises(ValueError):
            zero_mode_decay_bound(1.0, 0, 100.0)

    def test_sigma_one_bounded(self):
        rep = zero_mode_decay_bound(0.0, 1, 1e3)
        assert rep.sigma == 1.0
        assert rep.constant < 10.0

    def test_small_sigma_scales_like_sigma_cubed(self):
        rep = zero_mode_decay_bound(3.0, 1, 1e4)
        assert rep.sigma == pytest.approx(0.01, rel=1e-12)
        # sup <t>^3 |theta| should be within a factor 10 of sigma^-3
        assert rep.sup_weighted == pytest.approx(1e6, rel=9.0)
        assert rep.sup_weighted > 1e5


class TestSemigroupBound:
    GRID = [(e, a) for e in range(2, 12) for a in range(1, 11)]

    def test_m_zero_exact(self):
        rep = semigroup_bound_check(self.GRID, 0.0)
        assert rep.c_max <= 1.0 + 1e-9
        assert rep.spread < 1e-6

    def test_empty_interval(self):
        assert _semigroup_integral(0.1, 1.5, 0.0) == 0.0

    def test_uniform_constants(self):
        for m in (1.5, 2.5, 3.0):
            rep = semigroup_bound_check(self.GRID, m)
            assert math.isfinite(rep.c_max)
            assert rep.spread < 0.05
            # constants track Gamma(m+1) in the small-sigma regime
            assert rep.c_max == pytest.approx(math.gamma(m + 1), rel=0.1)

    def test_rejects_alpha_zero(self):
        with pytest.raises(ValueError):
            semigroup_bound_check([(1.0, 0)], 1.0)

    @pytest.mark.filterwarnings("ignore::UserWarning")    # quad's IntegrationWarning
    def test_integral_past_float64_raises(self):
        # the m = 171.3 integrand peaks just below float64's limit, but its
        # integral, about Gamma(172.3), is past it
        with pytest.raises(OverflowError, match="overflows float64"):
            _semigroup_integral(0.01, 171.3, 3e4)


class TestLiftup:
    def test_epsilon_scaling_exact(self):
        t = np.array([3.0, 17.0])
        v1 = liftup_value(t, 1e-3, 2.0, 1.0)
        v2 = liftup_value(t, 2e-3, 2.0, 1.0)
        assert np.allclose(v2, 4.0 * v1, rtol=1e-14)

    def test_even_in_eta_and_alpha(self):
        t = np.array([5.0, 50.0])
        assert np.array_equal(liftup_value(t, 1e-3, 3.0, 2.0),
                              liftup_value(t, 1e-3, -3.0, 2.0))
        assert np.array_equal(liftup_value(t, 1e-3, 3.0, 2.0),
                              liftup_value(t, 1e-3, 3.0, -2.0))

    def test_single_frequency_saturates(self):
        t = np.geomspace(1e3, 1e5, 40)
        v = liftup_value(t, 1e-3, 1.0, 1.0)   # sigma = 1/4, fully saturated
        fit = fit_loglog_slope(t, v, min_r2=None)
        assert abs(fit.exponent) < 1e-6

    def test_envelope_exponent(self):
        t = np.geomspace(10, 1000, 60)
        etas = np.arange(0.5, 40.01, 0.25)
        alphas = range(1, 15)
        env, fit = liftup_growth(1e-3, etas, alphas, t)
        assert fit.exponent == pytest.approx(1.5, abs=0.1)
        assert fit.r2 > 0.99

    def test_rejects_alpha_zero(self):
        with pytest.raises(ValueError):
            liftup_growth(1e-3, [1.0], [0], np.geomspace(10, 100, 20))

    @pytest.mark.parametrize("eta,alpha", [(3.0, 0.0), (0.0, 0.0)])
    def test_value_zero_for_alpha_zero(self, eta, alpha):
        t = np.array([0.0, 5.0, 50.0])
        assert np.array_equal(liftup_value(t, 1e-3, eta, alpha), np.zeros(3))
