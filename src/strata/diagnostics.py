"""Per-output-time diagnostics: velocity norms, the weighted norm ladder, CK terms.

The ladder norms carry Sobolev exponents in the hundreds and overflow
float64, so every weighted column is one log-sum-exp of log|c| + log A over
the column's modes (``log_l2_from_logs``), stored as log10(1 + x): finite,
nonnegative, monotone, log10(x) for large x, and 0.0 when no mode of the
mask carries mass.  Velocity L2 norms are stored as-is.  Weighted values
mean something only for t > 10; earlier rows are flagged by ``early``, and
time weights use the bracket <t> so the t = 0 row stays finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .lattice import SpectralField
from .symbols import velocity_symbol
from .weights import (
    WeightParams,
    b_multiplier,
    lambda_dot,
    lambda_t,
    lattice_weights,
    log_l2_from_logs,
    log_weighted_l2,
    masked_log,
)

__all__ = ["DiagnosticRow", "compute_row", "log10p_from_log", "theta_distance_log"]


def theta_distance_log(a: SpectralField, b: SpectralField, sigma: float,
                       p: WeightParams) -> float:
    """log of the Gevrey-Sobolev distance at the limiting radius lambda_inf.

    Measures Cauchy convergence of the sheared-frame scalar: the distance
    between states at increasing times shrinks as the profile settles.
    """
    if a.lattice != b.lattice:
        raise ValueError("states live on different lattices")
    lat = a.lattice
    logw = p.lambda_inf * lat.l1 ** p.s + sigma * lat.log_brackets
    return log_weighted_l2(lat, a.coeffs - b.coeffs, logw)


def log10p_from_log(ln_x: float) -> float:
    """log10(1 + x) computed from ln(x) without forming x; 0.0 for ln(x) = -inf."""
    if ln_x > 40.0:
        return ln_x / math.log(10.0)
    return math.log10(1.0 + math.exp(ln_x))


@dataclass
class DiagnosticRow:
    t: float
    early: int
    u1_l2: float
    u2_zero_l2: float
    u2_nonzero_l2: float
    u3_l2: float
    theta_l2: float
    mass_mode: float
    reality_err: float
    gev_s1_l10: float        # <t>^-3/2 * A^sigma1 norm (with J)
    gevb0_s1m2_l10: float    # zero-mode A^(sigma1-2) B norm
    gev0_s2_l10: float       # <t>^3/2  * sigma2 norm of the alpha!=0 zero mode
    gev_s3_l10: float        # <t>^-1/2 * sigma3 Gevrey norm (no J)
    gev0_s4_l10: float       # <t>^5/2  * sigma4 norm of the alpha!=0 zero mode
    gev_s5_l10: float        # sigma5 Gevrey norm (no J)
    gev0_s6_l10: float       # <t>^3    * sigma6 norm of the alpha!=0 zero mode
    sup0_s7_l10: float       # sup_eta weighted double-zero mode at sigma7
    ck_lambda_l10: float
    ck_w_l10: float

    @classmethod
    def header(cls) -> list[str]:
        return [f.name for f in fields(cls)]

    def values(self) -> list:
        return [getattr(self, f.name) for f in fields(self)]


def compute_row(state, p: WeightParams) -> DiagnosticRow:
    fieldv: SpectralField = state.field
    lat = fieldv.lattice
    t = state.t
    c = fieldv.coeffs
    ljt = 0.5 * math.log1p(t * t)
    lam = lambda_t(t, p)
    lw = lattice_weights(lat, p)

    # velocity L2 norms via Plancherel on the original-frame symbols
    v1, v2, v3 = velocity_symbol(t, lat.kx, lat.eta, lat.alpha)
    mag = np.abs(c)
    abs2 = mag**2
    u2_sq = v2**2 * abs2

    def _l2(mag2):
        return math.sqrt(lat.delta_eta * float(np.sum(mag2)))

    cols = {
        "t": t,
        "early": int(t <= 10.0),
        "u1_l2": _l2(v1**2 * abs2),
        "u2_zero_l2": _l2(u2_sq[0]),       # index 0 holds the k = 0 modes
        "u2_nonzero_l2": _l2(u2_sq[1:]),
        "u3_l2": _l2(v3**2 * abs2),
        "theta_l2": fieldv.l2(),
        "mass_mode": abs(complex(c[0, 0, 0])),
        "reality_err": fieldv.reality_defect(),
    }

    # weighted columns, all in log space on the one log|c|
    log_c = masked_log(mag)
    del v1, v2, v3, mag, abs2, u2_sq    # dead here; the loop below sets the row's peak memory
    gev_exp = lam * lat.l1 ** p.s
    s1, s2, s3, s4, s5, s6, s7 = p.sigmas
    log_a1 = gev_exp + s1 * lat.log_brackets + lw.log_j(t)    # A^sigma1 with J
    # B <f>^-2 on the k = 0 modes, turning log_a1 into A^(sigma1-2) J B there
    log_b = np.log(b_multiplier(lat.eta[0], lat.alpha[0])) - 2.0 * lat.log_brackets[0]
    ck_lambda = 0.5 * (p.s * masked_log(lat.l1) + math.log(-lambda_dot(t, p)))
    ck_w = 0.5 * masked_log(lw.dlogw_dt(t))
    znz = np.s_[0, :, 1:]    # k = 0, alpha != 0

    # One row per column: (sigma, extra log weight, modes, t_exp, power) is
    # ||<t>^t_exp A c||^power over the modes, with log A = log_a1 (sigma None)
    # or lambda|f|_1^s + sigma log<f>, plus the extra on those modes.  The CK
    # terms are -lambda_dot <t>^-3 ||A |f|_1^(s/2) c||^2 and <t>^-3 ||A sqrt(d_t w/w) c||^2.
    table = {
        "gev_s1_l10": (None, 0.0, ..., -1.5, 1),
        "gevb0_s1m2_l10": (None, log_b, 0, 0.0, 1),
        "gev0_s2_l10": (s2, 0.0, znz, 1.5, 1),
        "gev_s3_l10": (s3, 0.0, ..., -0.5, 1),
        "gev0_s4_l10": (s4, 0.0, znz, 2.5, 1),
        "gev_s5_l10": (s5, 0.0, ..., 0.0, 1),
        "gev0_s6_l10": (s6, 0.0, znz, 3.0, 1),
        "ck_lambda_l10": (None, ck_lambda, ..., -1.5, 2),
        "ck_w_l10": (None, ck_w, ..., -1.5, 2),
    }
    for name, (sigma, extra, modes, t_exp, power) in table.items():
        logw = (log_a1[modes] if sigma is None
                else gev_exp[modes] + sigma * lat.log_brackets[modes])
        ln = log_l2_from_logs(lat, log_c[modes] + (logw + extra))
        cols[name] = log10p_from_log(power * (ln + t_exp * ljt))

    # sup over eta of the z- and x-averaged mode at sigma7
    eta_1d = lat.eta.ravel()
    sup_arg = (log_c[0, :, 0] + lam * np.abs(eta_1d) ** p.s
               + 0.5 * s7 * np.log1p(eta_1d**2))
    cols["sup0_s7_l10"] = log10p_from_log(float(np.max(sup_arg)))

    return DiagnosticRow(**cols)
