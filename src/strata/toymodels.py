"""Numerical drivers for the three growth/decay mechanisms.

Covers the 2x2 resonance system on a critical interval, the damped
zero-mode model with algebraically decaying forcing, the envelope of the
streamwise lift-up integral, and the uniform semigroup bound, plus the
log-log slope fitting these drivers report through.

``import strata`` loads numpy and no ``scipy`` module; ``scipy.integrate``
loads at the first toy integration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .symbols import zero_mode_rate
from .weights import weight_table

__all__ = [
    "GrowthFit",
    "FitError",
    "fit_loglog_slope",
    "orr_toy_integrate",
    "ZeroModeReport",
    "zero_mode_decay_bound",
    "SemigroupBoundReport",
    "semigroup_bound_check",
    "liftup_growth",
    "liftup_value",
]


class FitError(ValueError):
    """Raised when a power-law fit does not meet its quality floor."""


@dataclass(frozen=True)
class GrowthFit:
    exponent: float
    r2: float
    window: tuple[float, float]


def fit_loglog_slope(t, values, window: tuple[float, float] | None = None,
                     min_r2: float | None = 0.99) -> GrowthFit:
    """Least-squares slope of log(value) against log(t).

    Requires finite times and at least 8 finite, strictly positive points
    inside ``window``, at two or more distinct times.  When ``min_r2`` is set (the default), a fit below
    that quality raises :class:`FitError` instead of silently returning a
    misfit; pass None to inspect poor fits.
    """
    t = np.asarray(t, dtype=float)
    v = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(t)):
        raise FitError("power-law fit requires finite times")
    if window is None:
        window = (float(np.min(t)), float(np.max(t)))
    sel = (t >= window[0]) & (t <= window[1])
    t, v = t[sel], v[sel]
    if t.size < 8:
        raise FitError(f"need at least 8 points in window {window}, got {t.size}")
    if not np.all(np.isfinite(v)):
        raise FitError(f"power-law fit requires finite values in window {window}")
    if np.any(v <= 0) or np.any(t <= 0):
        raise FitError("power-law fit requires strictly positive times and values")
    if np.all(t == t[0]):
        raise FitError(f"power-law fit needs two distinct times in window {window}")
    x = np.log(t)
    y = np.log(v)
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_res = float(np.sum(resid**2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    if ss_tot < 1e-28:
        r2 = 1.0  # constant series fits exactly
    else:
        r2 = 1.0 - ss_res / ss_tot
    fit = GrowthFit(float(slope), float(r2), window)
    if min_r2 is not None and r2 < min_r2:
        raise FitError(f"log-log fit r2={r2:.4f} below the {min_r2} floor "
                       f"(slope {slope:.3f} over {window})")
    return fit


def orr_toy_integrate(k: int, eta: float, kappa: float) -> tuple[float, float]:
    """Integrate the resonant/non-resonant pair across one critical interval.

        theta_R'  = kappa * k^2/|eta| * theta_NR
        theta_NR' = kappa * |eta| / (k^2 (1 + |t - eta/k|^2)) * theta_R

    from unit data at the interval's left endpoint; returns the terminal
    amplitudes (|theta_R|, |theta_NR|).  The interval [t_k, t_{k-1}] and its
    peak |eta|/k are those of the weight table of |eta|, which must exceed 1.
    """
    if k < 1 or eta * k <= 0:
        raise ValueError("need k >= 1 and eta*k > 0")
    from scipy.integrate import solve_ivp

    ae = abs(eta)
    table = weight_table(ae, 1.0)    # the breakpoints do not depend on c_star
    if k > table.ell_max:
        raise ValueError(f"k={k} exceeds E(sqrt|eta|) for eta={eta}: no critical interval")
    t_k, t_km1, tc = table.t_ell[k], table.t_ell[k - 1], table.peaks[k - 1]

    c_r = kappa * k * k / ae
    c_nr = kappa * ae / (k * k)

    def rhs(t, y):
        return [c_r * y[1], c_nr / (1.0 + (t - tc) ** 2) * y[0]]

    # a diverging trial step ends in the failure below, not in a warning storm
    with np.errstate(over="ignore", invalid="ignore"):
        sol = solve_ivp(rhs, (t_k, t_km1), [1.0, 1.0], method="DOP853",
                        rtol=1e-10, atol=1e-10)
    if not sol.success:
        raise RuntimeError(f"toy-model integration failed: {sol.message}")
    return abs(float(sol.y[0, -1])), abs(float(sol.y[1, -1]))


@dataclass(frozen=True)
class ZeroModeReport:
    """sup_t <t>^3 |theta0(t)| measured against the sigma^-3 payoff."""

    sigma: float
    constant: float            # sup <t>^3 |theta0| * sigma^3 / (|theta0(0)| + 1)
    sup_weighted: float        # sup <t>^3 |theta0|
    t_at_sup: float


def zero_mode_solution(t: float, sigma: float, theta0: float = 1.0,
                       forced: bool = True) -> float:
    """Exact variation-of-constants solution of theta' + sigma theta = <tau>^-3."""
    hom = theta0 * math.exp(-sigma * t)
    if not forced or t == 0.0:
        return hom
    from scipy.integrate import quad

    val, _ = quad(lambda tau: math.exp(-sigma * (t - tau)) * (1.0 + tau * tau) ** -1.5,
                  0.0, t, epsabs=1e-12, epsrel=1e-12, limit=200)
    return hom + val


def zero_mode_decay_bound(eta: float, alpha: int, t_max: float,
                          n_t: int = 80) -> ZeroModeReport:
    """Report the <t>^3 decay constant of the damped zero-mode model from theta0 = 1."""
    if alpha == 0:
        raise ValueError("the zero-mode damping vanishes at alpha = 0")
    sigma = zero_mode_rate(eta, alpha)
    ts = np.geomspace(1e-2, t_max, n_t)
    ts = np.concatenate(([0.0], ts))
    sup, t_at = 0.0, 0.0
    for t in ts:
        val = (1.0 + t * t) ** 1.5 * abs(zero_mode_solution(float(t), sigma))
        if val > sup:
            sup, t_at = val, float(t)
    constant = sup * sigma**3 / 2.0     # / (|theta0| + 1) at theta0 = 1
    return ZeroModeReport(sigma, constant, sup, t_at)


@dataclass(frozen=True)
class SemigroupBoundReport:
    """Uniformity of sigma * int (sigma<t-tau>)^m exp(-sigma(t-tau)) dtau over a grid."""

    m: float
    constants: np.ndarray
    c_max: float
    spread: float              # (max - min) / min over the frequency grid


def _semigroup_integral(sigma: float, m: float, horizon: float) -> float:
    # sigma * int_0^H (sigma sqrt(1+u^2))^m e^(-sigma u) du, via x = sigma*u; the
    # integrand in one exp, as the power alone overflows before e^-x scales it
    from scipy.integrate import quad

    def integrand(x):
        return math.exp(0.5 * m * math.log(sigma * sigma + x * x) - x)

    val, _ = quad(integrand, 0.0, sigma * horizon, epsabs=1e-12, epsrel=1e-12,
                  limit=200)
    if not math.isfinite(val):
        raise OverflowError(f"the m = {m:g} integral overflows float64")
    return val


def semigroup_bound_check(grid, m: float, n_t: int = 24) -> SemigroupBoundReport:
    """Evaluate the semigroup moment bound over a frequency grid.

    For each (eta, alpha != 0) the supremum over t <= 200/sigma of
    sigma * int_10^t (sigma <t-tau>)^m S(t-tau) dtau is computed; the report
    carries the per-frequency constants and their relative spread.
    """
    if m < 0:
        raise ValueError("m must be nonnegative")
    consts = []
    for eta, alpha in grid:
        if alpha == 0:
            raise ValueError("alpha = 0 has no semigroup decay")
        sigma = zero_mode_rate(eta, alpha)
        horizons = np.geomspace(1.0, 200.0 / sigma, n_t)
        best = max(_semigroup_integral(sigma, m, h) for h in horizons)
        consts.append(best)
    consts = np.asarray(consts)
    cmax = float(np.max(consts))
    cmin = float(np.min(consts))
    spread = (cmax - cmin) / cmin if cmin > 0 else math.inf
    return SemigroupBoundReport(m, consts, cmax, spread)


def liftup_value(t, epsilon: float, eta: float, alpha: float):
    """Streamwise zero-mode response eps^2 |eta,alpha| sigma int_0^t tau e^(-sigma tau) dtau.

    The time integral has the closed form (1 - (1 + sigma t) e^(-sigma t)) / sigma^2.
    Even in eta and alpha separately and exactly quadratic in epsilon; zero
    for alpha = 0, where the zero mode is undamped and not forced.
    """
    t = np.asarray(t, dtype=float)
    if alpha == 0:
        return np.zeros_like(t)
    sigma = zero_mode_rate(eta, alpha)
    x = sigma * t
    ramp = -np.expm1(-x) - x * np.exp(-x)   # 1 - (1+x)e^-x, stable for small x
    return epsilon**2 * (abs(eta) + abs(alpha)) * ramp / sigma


def liftup_growth(epsilon: float, etas, alphas, t_grid) -> tuple[np.ndarray, GrowthFit]:
    """Envelope of the lift-up response over a frequency grid, with its slope fit.

    The fit spans all of ``t_grid`` at ``fit_loglog_slope``'s r2 floor.  The
    t^(3/2) envelope emerges only while the grid resolves damping rates
    sigma ~ 1/t along eta ~ alpha; the caller chooses the grid accordingly.
    """
    t = np.asarray(t_grid, dtype=float)
    env = np.zeros_like(t)
    for alpha in alphas:
        if alpha == 0:
            raise ValueError("alpha = 0 modes do not participate in lift-up")
        for eta in etas:
            np.maximum(env, liftup_value(t, epsilon, eta, alpha), out=env)
    fit = fit_loglog_slope(t, env)
    return env, fit
