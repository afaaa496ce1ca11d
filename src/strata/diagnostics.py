"""Per-output-time diagnostics: velocity norms, the weighted norm ladder, CK terms.

The ladder norms carry Sobolev exponents in the hundreds and overflow
float64, so every weighted column is one log-sum-exp of log(m|c|^2) +
2 log A over the column's modes, shifted by that column's own max, and
stored as log10(1 + x): finite, nonnegative, monotone, log10(x) for large
x, and 0.0 when no mode of the column carries mass.  Velocity L2 norms are
stored as-is, as sums of m|c|^2 / D^4 against squared symbols, with
D = k^2 + (eta - kt)^2 + alpha^2.  Weighted values mean something only for
t > 10; earlier rows are flagged by ``early``, and time weights use the
bracket <t> so the t = 0 row stays finite.

Every column but mass_mode, reality_err and theta_l2 reduces over one mode
set: the modes that carry mass (m = 1), or, for a run's state (one with a
core, see ``simulate``), the core's packed modes with each alpha > 0 one
counted twice (m = 2).  What a row needs that does not depend on t is built
once per mode set, as its row plan.  w_k and d/dt log w_k are evaluated
once per row on the plan's groups, the distinct (|iota| row, resonant key)
pairs of its modes, and gathered to the modes.

reality_err is max|Im theta| / max|theta|, from a full c2c transform
(``SpectralField.reality_defect``), with one exception: a state with a core
can be non-real only on its alpha = 0 plane, so its row is exactly 0.0,
with no transform, when that plane pairs exactly.  theta_l2 is the field's
``l2`` whenever the state holds a field after that step, so it equals the
l2 of a checkpoint of the state bit for bit; a state that still holds only
packed values, whose row then builds no full-lattice array, sums them with
their multiplicities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import lru_cache

import numpy as np

from .lattice import SpectralField
from .symbols import velocity_symbol  # noqa: F401  (the benchmark tracer wraps it here)
from .weights import (
    WeightParams,
    b_multiplier,
    lambda_dot,
    lambda_t,
    lattice_weights,
    log_sum_exp,
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


class _RowPlan:
    """The t-independent part of a row over one mode set, in flat order (k = 0 first).

    ``modes`` is the packed bits of a flat mode set (m = 1), or a
    ``simulate._Core`` whose packed modes stand for the whole field: m = 2
    for alpha > 0, whose partner is implied, and 1 on the alpha = 0 plane.
    Log weights are doubled, as they enter log(m|c|^2 A^2).
    """

    def __init__(self, lat, p: WeightParams, modes):
        if isinstance(modes, bytes):
            idx = np.flatnonzero(np.unpackbits(np.frombuffer(modes, np.uint8), count=lat.size))
            self.m = 1.0
        else:
            idx = modes.full_idx
            self.m = np.where(modes.upper, 2.0, 1.0)
        ix, iy, iz = np.unravel_index(idx, lat.shape)
        k, eta, alpha = lat.kx.ravel()[ix], lat.eta.ravel()[iy], lat.alpha.ravel()[iz]
        l1, log_br = lat.l1.ravel()[idx], lat.log_brackets.ravel()[idx]
        s1, s2, s3, s4, s5, s6, s7 = p.sigmas

        # velocity sums; D = k^2 + (eta - kt)^2 + alpha^2 is formed as
        # (eta - kt)^2 + d0, where d0 is inf at the mean mode so that q = 0 there
        self.k, self.eta, self.kk, self.aa = k, eta, k * k, alpha * alpha
        ka = self.kk + self.aa
        self.ka2 = ka * ka
        self.d0 = np.where(idx == 0, math.inf, ka)

        # the ladder: 2 |f|_1^s (times lambda), 2 sigma log<f>, s log|f|_1 for
        # the lambda CK term, and each mode's weight group
        self.two_l1s = 2.0 * l1**p.s
        self.s_log_l1 = p.s * masked_log(l1)
        self.a1, self.a3, self.a5 = (2.0 * s * log_br for s in (s1, s3, s5))
        self.tables = lattice_weights(lat, p).tables
        row, key = self.tables.modes(k, lat.iota_vals.ravel()[idx])
        width = int(key.max(initial=0)) + 1
        codes, group = np.unique(row * width + key.astype(np.intp), return_inverse=True)
        self.groups, self.group = (codes // width, codes % width), group

        # the k = 0 modes: B <f>^-2, turning A^sigma1 J into A^(sigma1-2) J B;
        # the alpha != 0 ones at sigma 2, 4, 6; the alpha = 0 ones at sigma 7
        self.n0 = n0 = int(np.count_nonzero(ix == 0))
        self.b0 = 2.0 * (np.log(b_multiplier(eta[:n0], alpha[:n0])) - 2.0 * log_br[:n0])
        self.znz, self.dz = np.flatnonzero(iz[:n0] != 0), np.flatnonzero(iz[:n0] == 0)
        self.a246 = [2.0 * s * log_br[self.znz] for s in (s2, s4, s6)]
        self.a7 = s7 * np.log1p(eta[self.dz] ** 2)
        self.scratch = np.empty((4, idx.size))


# the row plan of the last (lattice, weight parameters, mode set) asked
_support = lru_cache(maxsize=1)(_RowPlan)


def _plane_pairs(state) -> bool:
    """True when the alpha = 0 plane of a state with a core pairs exactly, c(-f) = conj c(f).

    The alpha != 0 modes of such a state pair by construction, so theta is
    then exactly real.  A state that holds packed values is checked on its
    stored plane members; a field, which may have been edited off the kept
    modes, on its whole plane.
    """
    if state.holds_packed:
        core, c = state.core, state.packed
        return np.array_equal(c[core.plane_pair], np.conj(c[core.plane]))
    plane = state.field.coeffs[:, :, 0]
    return np.array_equal(np.roll(plane[::-1, ::-1], 1, axis=(0, 1)), np.conj(plane))


def compute_row(state, p: WeightParams) -> DiagnosticRow:
    core, t = state.core, state.t

    # reality first: a defect reads the field, which then holds the state
    paired = core is not None and _plane_pairs(state)
    reality = 0.0 if paired else state.field.reality_defect()
    if core is None:
        lat, flat = state.field.lattice, state.field.coeffs.ravel()
        # the modes that carry mass: the others add 0 to every sum
        occupied = flat != 0
        modes, c = np.packbits(occupied).tobytes(), flat[occupied]
        mass = abs(complex(flat[0]))
    else:
        lat, c, modes = core.lattice, state.packed, core
        mass = abs(complex(c[core.mean[0]])) if core.mean.size else 0.0
    plan = _support(lat, p, modes)
    q, log_c2, x, y = plan.scratch
    n0, deta = plan.n0, lat.delta_eta
    log_w, dlog_w, _ = plan.tables.mode_weights(t, *plan.groups)

    # m|c|^2 and its log; the log from |c| instead when a |c|^2 underflowed,
    # overflowed or is NaN, so that a NaN drops out as a zero does
    try:
        with np.errstate(under="raise"):
            np.add(np.square(c.real, out=q), np.square(c.imag, out=x), out=q)
        normal = True
    except FloatingPointError:
        np.add(np.square(c.real, out=q), np.square(c.imag, out=x), out=q)
        normal = False
    q *= plan.m
    total = float(q.sum())
    if normal and math.isfinite(total):
        with np.errstate(divide="ignore"):
            np.log(q, out=log_c2)
    else:
        np.add(2.0 * masked_log(np.abs(c)), np.log(plan.m), out=log_c2)

    # velocity L2 norms via Plancherel on the original-frame symbols
    em2 = np.subtract(plan.eta, np.multiply(plan.k, t, out=x), out=x)
    em2 *= em2
    d2 = np.add(em2, plan.d0, out=y)
    d2 *= d2
    q /= d2
    q /= d2                                         # m|c|^2 / D^4
    em2 *= q
    sums = {"u1_l2": np.dot(plan.kk, em2), "u2_zero_l2": np.dot(plan.ka2[:n0], q[:n0]),
            "u2_nonzero_l2": np.dot(plan.ka2[n0:], q[n0:]), "u3_l2": np.dot(plan.aa, em2),
            "theta_l2": total}
    cols = {name: math.sqrt(deta * float(s)) for name, s in sums.items()}
    if not state.holds_packed:
        cols["theta_l2"] = state.field.l2()
    cols.update(t=t, early=int(t <= 10.0), mass_mode=mass, reality_err=reality)

    # Weighted columns: ||<t>^t_exp A c||^power from ln2, the log-sum-exp of
    # log(m|c|^2 A^2) over the column's modes.  log A is lambda|f|_1^s +
    # sigma log<f>, minus log w with J; the CK terms are -lambda_dot <t>^-3
    # ||A^sigma1 |f|_1^(s/2) c||^2 and <t>^-3 ||A^sigma1 sqrt(d_t w/w) c||^2.
    ljt, log_deta = 0.5 * math.log1p(t * t), math.log(deta)

    def col(ln2, t_exp, power=1):
        return log10p_from_log(power * (0.5 * (ln2 + log_deta) + t_exp * ljt))

    lg = np.multiply(plan.two_l1s, lambda_t(t, p), out=x)
    lg += log_c2                                   # no Sobolev weight, no J
    zero_nz, zero_z = lg[plan.znz], lg[plan.dz]
    s2, s4, s6 = (log_sum_exp(zero_nz + a) for a in plan.a246)
    cols.update(gev0_s2_l10=col(s2, 1.5), gev0_s4_l10=col(s4, 2.5), gev0_s6_l10=col(s6, 3.0),
                gev_s3_l10=col(log_sum_exp(np.add(lg, plan.a3, out=y)), -0.5),
                gev_s5_l10=col(log_sum_exp(np.add(lg, plan.a5, out=y)), 0.0))
    # sup over eta of the z- and x-averaged mode at sigma7
    cols["sup0_s7_l10"] = log10p_from_log(
        0.5 * float((zero_z + plan.a7).max(initial=-math.inf)))

    lg += plan.a1
    lg -= np.take(2.0 * log_w, plan.group, out=y)    # A^sigma1 with J = 1/w
    cols["gevb0_s1m2_l10"] = col(log_sum_exp(lg[:n0] + plan.b0), 0.0)
    cols["gev_s1_l10"] = col(log_sum_exp(lg, out=y), -1.5)
    # -lambda_dot = 0 (it underflows for a tiny delta_tilde) gives 0.0, as no mass does
    ck = -lambda_dot(t, p)
    cols["ck_lambda_l10"] = 0.0 if ck == 0.0 else col(
        log_sum_exp(np.add(lg, plan.s_log_l1, out=y)) + math.log(ck), -1.5, 2)
    # d_t w = 0 on every mode (as past the last critical time) gives 0.0
    cols["ck_w_l10"] = 0.0 if not np.any(dlog_w > 0) else col(
        log_sum_exp(np.add(lg, np.take(masked_log(dlog_w), plan.group, out=y), out=y)),
        -1.5, 2)
    return DiagnosticRow(**cols)
