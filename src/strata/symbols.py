"""Closed-form Fourier symbols of the linearized dynamics.

Everything here is a pointwise multiplier on the (k, eta, alpha) lattice.
The Couette symbols are one object, ``_Couette(k, eta, alpha)``: the
original-frame velocity, the moving-frame transport velocity, the damping
rate and its exact time antiderivative G, as functions of t on fixed
modes whose t-independent parts are formed once.  ``velocity_symbol``,
``transport_symbol``, ``damping_coeff``, ``damping_antiderivative`` and
``damping_integral`` are each one call on it.  ``simulate`` holds one on
its packed modes and one on its transforms' box; a diagnostic row plan
reads the former, or builds one on a field's occupied modes.  All functions
accept scalars or broadcastable numpy arrays and assign the excluded
(0,0,0) mode the value zero.

The velocity, transport and damping symbols share one 1/D^2 multiplier,
D = k^2 + (eta-kt)^2 + alpha^2, which covers k = 0 with no branch of its
own; the constant k = 0 damping rate, sigma, is ``zero_mode_rate``.  The
damping is integrated once, in G: every damping factor over [t0, t1],
linear or inside the nonlinear step, is exp(G(t0) - G(t1)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "velocity_symbol",
    "transport_symbol",
    "damping_coeff",
    "zero_mode_rate",
    "damping_antiderivative",
    "damping_integral",
    "semigroup",
    "orr_amplification",
    "SymbolBoundReport",
    "nonzero_mode_decay_bound_check",
]


class _Couette:
    """The Couette symbols on fixed modes (k, eta, alpha), as functions of t.

    The t-independent parts are formed once.  ``velocity``, ``transport``
    and ``rate`` read eta - kt, the mask D > 0 and 1/D^2 from one helper;
    ``G`` needs only eta - kt, formed with k = 1 off the shear modes.  The
    inputs need no broadcasting: every output takes the broadcast shape of
    t, k, eta and alpha, and ``rate`` and ``G`` give a float for scalars.
    """

    def __init__(self, k, eta, alpha):
        self.k, self.eta, self.alpha = (np.asarray(a, dtype=float) for a in (k, eta, alpha))
        self.kk = self.k * self.k
        self.aa = self.alpha * self.alpha
        self.ka = self.kk + self.aa
        # G's parts: b = k^2 + alpha^2 and the k = 0 rate, with k = 1 off the shear modes
        self.shear = self.k != 0
        self.ks = np.where(self.shear, self.k, 1.0)
        self.b = self.ks * self.ks + self.aa
        self.sq = np.sqrt(self.b)
        self.scale = -2.0 * self.ks
        self.rate0 = zero_mode_rate(self.eta, self.alpha)

    def _at(self, t):
        # eta - k t, the mask D > 0 and 1/D^2 (1 where D = 0)
        em = self.eta - self.k * t
        D = self.kk + em * em + self.aa
        keep = D > 0
        return em, keep, 1.0 / np.where(keep, D, 1.0) ** 2

    def velocity(self, t):
        em, keep, inv2 = self._at(t)
        return (np.where(keep, self.k * em * inv2, 0.0), np.where(keep, -self.ka * inv2, 0.0),
                np.where(keep, em * self.alpha * inv2, 0.0))

    def transport(self, t):
        em, keep, inv2 = self._at(t)
        return (np.where(keep, (t * self.ka + self.k * em) * inv2, 0.0),
                np.where(keep, -self.ka * inv2, 0.0), np.where(keep, em * self.alpha * inv2, 0.0))

    def rate(self, t):
        _, keep, inv2 = self._at(t)
        out = np.where(keep, self.ka * inv2, 0.0)
        return out if out.ndim else float(out)

    def G(self, t):
        t = np.asarray(t, dtype=float)
        u = self.eta - self.ks * t
        out = np.where(self.shear, (u / (self.b + u * u) + np.arctan(u / self.sq) / self.sq)
                       / self.scale, self.rate0 * t)
        return out if out.ndim else float(out)


def velocity_symbol(t, k, eta, alpha):
    """Original-frame velocity multipliers (v1, v2, v3) applied to theta-hat.

    v = (k(eta-kt), -(k^2+alpha^2), (eta-kt)*alpha) / D^2 with
    D = k^2 + (eta-kt)^2 + alpha^2; zero at the mean mode where D = 0.
    """
    return _Couette(k, eta, alpha).velocity(t)


def transport_symbol(t, k, eta, alpha):
    """Moving-frame velocity multipliers (u1, u2, u3) applied to theta-hat.

    u = (t(k^2+a^2) + k(eta-kt), -(k^2+a^2), (eta-kt)a) / D^2, zero at the
    mean mode.  At k = 0 this is (t a^2, -a^2, eta a) / (eta^2+a^2)^2.
    """
    return _Couette(k, eta, alpha).transport(t)


def damping_coeff(t, k, eta, alpha):
    """Linear damping rate (k^2+alpha^2)/D^2, reducing to zero_mode_rate at k = 0."""
    return _Couette(k, eta, alpha).rate(t)


def zero_mode_rate(eta, alpha):
    """Constant damping rate alpha^2/(eta^2+alpha^2)^2 of a k = 0 mode; 0 at (0, 0)."""
    eta = np.asarray(eta, dtype=float)
    alpha = np.asarray(alpha, dtype=float)
    R = eta * eta + alpha * alpha
    out = alpha * alpha / np.where(R > 0, R, 1.0) ** 2
    return out if out.ndim else float(out)


def damping_antiderivative(t, k, eta, alpha):
    """Antiderivative G in t of the damping coefficient, one per mode.

    G(t1) - G(t0) is the exact integral of ``damping_coeff`` over [t0, t1].
    For k != 0, G = -F(eta - kt)/k with b = k^2 + alpha^2 and
    F(u) = u/(2(b+u^2)) + arctan(u/sqrt(b))/(2 sqrt(b)); for k = 0,
    G = zero_mode_rate * t, which is 0 at the mean mode.
    """
    return _Couette(k, eta, alpha).G(t)


def damping_integral(t0, t1, k, eta, alpha):
    """Exact integral of the damping coefficient over [t0, t1], t0 <= t1."""
    if np.any(np.asarray(t1) < np.asarray(t0)):
        raise ValueError("damping_integral requires t0 <= t1")
    modes = _Couette(k, eta, alpha)
    return modes.G(t1) - modes.G(t0)


def semigroup(t, eta, alpha):
    """Zero-mode propagator exp(-alpha^2 t / (eta^2+alpha^2)^2)."""
    eta = np.asarray(eta, dtype=float)
    alpha = np.asarray(alpha, dtype=float)
    if np.any((eta == 0) & (alpha == 0)):
        raise ValueError("semigroup is undefined at (eta, alpha) = (0, 0)")
    if np.any(np.asarray(t) < 0):
        raise ValueError("semigroup requires t >= 0")
    out = np.exp(-zero_mode_rate(eta, alpha) * np.asarray(t, float))
    return out if out.ndim else float(out)


def orr_amplification(k: float, eta: float, alpha: float = 0.0) -> float:
    """Exact peak/initial ratio of |v2| for a k != 0 mode: (D(0)/(k^2+a^2))^2."""
    if k == 0:
        raise ValueError("orr_amplification requires k != 0")
    d0 = k * k + eta * eta + alpha * alpha
    return (d0 / (k * k + alpha * alpha)) ** 2


@dataclass(frozen=True)
class SymbolBoundReport:
    """Smallest uniform constant closing the algebraic decay bounds on a t-grid."""

    constant: float
    c_v1: float
    c_v2: float
    c_v3: float
    c_transport: float
    passed: bool

    def __bool__(self) -> bool:
        return self.passed


def nonzero_mode_decay_bound_check(k: int, eta: float, alpha: float,
                                   t_grid) -> SymbolBoundReport:
    """Verify the <t>^-3 / <t>^-4 symbol decay bounds for a k != 0 frequency.

    Checks |v1|<t>^3 <= C<f>^3, |v2|<t>^4 <= C<f>^6, |v3|<t>^3 <= C<f>^4 and
    |u|<t>^3 <= C<f>^6 over ``t_grid`` and reports the smallest such C.
    """
    if k == 0:
        raise ValueError("decay bounds only apply to k != 0 modes")
    t = np.asarray(t_grid, dtype=float)
    jt = np.sqrt(1.0 + t * t)
    br = math.sqrt(1.0 + k * k + eta * eta + alpha * alpha)
    v1, v2, v3 = (np.abs(v) for v in velocity_symbol(t, k, eta, alpha))
    umag = np.sqrt(sum(u * u for u in transport_symbol(t, k, eta, alpha)))

    c1 = float(np.max(v1 * jt**3)) / br**3
    c2 = float(np.max(v2 * jt**4)) / br**6
    c3 = float(np.max(v3 * jt**3)) / br**4
    cu = float(np.max(umag * jt**3)) / br**6
    c = max(c1, c2, c3, cu)
    return SymbolBoundReport(c, c1, c2, c3, cu, math.isfinite(c))
