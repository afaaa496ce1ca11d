"""Per-output-time diagnostics: velocity norms, the weighted norm ladder, CK terms.

The ladder norms carry Sobolev exponents in the hundreds, so their values
overflow float64 by enormous margins; every weighted entry is therefore
computed in log space and stored as log10(1 + x), which is finite,
nonnegative, monotone in x, and equals log10(x) for large x.  Velocity L2
norms are small and stored as-is.  Weighted quantities are only meaningful
for t > 10; earlier rows are flagged by the ``early`` column, and all time
weights use the bracket <t> so the t = 0 row stays finite.
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
    """log10(1 + x) computed from ln(x) without forming x."""
    if ln_x == -math.inf:
        return 0.0
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
    deta = lat.delta_eta

    # velocity L2 norms via Plancherel on the original-frame symbols
    v1, v2, v3 = velocity_symbol(t, lat.kx, lat.eta, lat.alpha)
    zero = np.broadcast_to(lat.kx == 0, lat.shape)

    def _l2(mag2):
        return math.sqrt(deta * float(np.sum(mag2)))

    abs2 = np.abs(c) ** 2
    u1_l2 = _l2(v1**2 * abs2)
    u3_l2 = _l2(v3**2 * abs2)
    u2_zero = _l2(np.where(zero, v2**2 * abs2, 0.0))
    u2_nonzero = _l2(np.where(zero, 0.0, v2**2 * abs2))

    # weighted ladder, all in log space
    gev_exp = lam * lat.l1 ** p.s
    log_j = lw.log_j(t)
    log_b = np.log(b_multiplier(lat.eta, lat.alpha))
    zero_mask = zero
    znz_mask = zero & np.broadcast_to(lat.alpha != 0, lat.shape)

    def _ladder(sigma, tweight, use_j=False, use_b=False, mask=None):
        logw = gev_exp + sigma * lat.log_brackets
        if use_j:
            logw = logw + log_j
        if use_b:
            logw = logw + log_b
        ln = log_weighted_l2(lat, c, logw, mask)
        if ln != -math.inf:
            ln = ln + tweight * ljt
        return log10p_from_log(ln)

    s1, s2, s3, s4, s5, s6, s7 = p.sigmas
    gev_s1 = _ladder(s1, -1.5, use_j=True)
    gevb0_s1m2 = _ladder(s1 - 2.0, 0.0, use_j=True, use_b=True, mask=zero_mask)
    gev0_s2 = _ladder(s2, 1.5, mask=znz_mask)
    gev_s3 = _ladder(s3, -0.5)
    gev0_s4 = _ladder(s4, 2.5, mask=znz_mask)
    gev_s5 = _ladder(s5, 0.0)
    gev0_s6 = _ladder(s6, 3.0, mask=znz_mask)

    # sup over eta of the z- and x-averaged mode at sigma7
    dz_col = np.abs(c[0, :, 0])
    eta_1d = lat.eta.ravel()
    sup_arg = (masked_log(dz_col) + lam * np.abs(eta_1d) ** p.s
               + 0.5 * s7 * np.log1p(eta_1d**2))
    sup0_s7 = log10p_from_log(float(np.max(sup_arg)))

    # CK terms at sigma1 (with J), bracketed time factor <t>^-3
    log_a1 = gev_exp + s1 * lat.log_brackets + log_j
    half_log_l1s = 0.5 * p.s * masked_log(lat.l1)
    ln_ck_lam = log_weighted_l2(lat, c, log_a1 + half_log_l1s)
    if ln_ck_lam != -math.inf:
        # -lambda_dot * <t>^-3 * (weighted norm)^2, assembled in logs
        ln_ck_lam = math.log(-lambda_dot(t, p)) - 3.0 * ljt + 2.0 * ln_ck_lam
    ck_lambda = log10p_from_log(ln_ck_lam)

    ratio = lw.dlogw_dt(t)
    half_log_ratio = 0.5 * masked_log(ratio)
    ln_ck_w = log_weighted_l2(lat, c, log_a1 + half_log_ratio)
    if ln_ck_w != -math.inf:
        ln_ck_w = 2.0 * ln_ck_w - 3.0 * ljt
    ck_w = log10p_from_log(ln_ck_w)

    return DiagnosticRow(
        t=t,
        early=int(t <= 10.0),
        u1_l2=u1_l2,
        u2_zero_l2=u2_zero,
        u2_nonzero_l2=u2_nonzero,
        u3_l2=u3_l2,
        theta_l2=fieldv.l2(),
        mass_mode=abs(complex(c[0, 0, 0])),
        reality_err=fieldv.reality_defect(),
        gev_s1_l10=gev_s1,
        gevb0_s1m2_l10=gevb0_s1m2,
        gev0_s2_l10=gev0_s2,
        gev_s3_l10=gev_s3,
        gev0_s4_l10=gev0_s4,
        gev_s5_l10=gev_s5,
        gev0_s6_l10=gev0_s6,
        sup0_s7_l10=sup0_s7,
        ck_lambda_l10=ck_lambda,
        ck_w_l10=ck_w,
    )
