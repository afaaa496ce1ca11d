"""Per-output-time diagnostics: velocity norms, the weighted norm ladder, CK terms.

The ladder norms carry Sobolev exponents in the hundreds and overflow
float64, so every weighted column is one log-sum-exp of log|c| + log A over
the column's modes (``log_l2_from_logs``), stored as log10(1 + x): finite,
nonnegative, monotone, log10(x) for large x, and 0.0 when no mode of the
mask carries mass.  Velocity L2 norms are stored as-is.  Weighted values
mean something only for t > 10; earlier rows are flagged by ``early``, and
time weights use the bracket <t> so the t = 0 row stays finite.

Every column but mass_mode, reality_err and theta_l2 reduces over one
mode set, whose constants are built once: the modes that carry mass, or,
for a run's state (one with a core, see ``simulate``), the core's packed
modes with each alpha > 0 one counted twice.  w_k and d/dt log w_k come
from one stacked weight evaluation per row.

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


@lru_cache(maxsize=1)
def _support(lat, p: WeightParams, modes):
    """Per-mode constants of a mode set in flat order (k = 0 first), and multiplicities m.

    ``modes`` is the packed bits of a flat mode set (m = 1), or a
    ``simulate._Core`` whose packed modes stand for the whole field: m = 2
    for alpha > 0, whose partner is implied, and 1 on the alpha = 0 plane.
    """
    if isinstance(modes, bytes):
        idx = np.flatnonzero(np.unpackbits(np.frombuffer(modes, np.uint8), count=lat.size))
        m, half_log_m = 1.0, 0.0
    else:
        idx = modes.full_idx
        m = np.where(modes.upper, 2.0, 1.0)
        half_log_m = 0.5 * np.log(m)
    ix, iy, iz = np.unravel_index(idx, lat.shape)
    f = lat.kx.ravel()[ix], lat.eta.ravel()[iy], lat.alpha.ravel()[iz]
    l1 = lat.l1.ravel()[idx]
    return (f, lattice_weights(lat, p).tables.modes(f[0], lat.iota_vals.ravel()[idx]),
            l1**p.s, p.s * masked_log(l1), lat.log_brackets.ravel()[idx], iz[ix == 0],
            m, half_log_m)


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
    ljt = 0.5 * math.log1p(t * t)
    lam = lambda_t(t, p)

    # reality first: a defect reads the field, which then holds the state
    paired = core is not None and _plane_pairs(state)
    reality = 0.0 if paired else state.field.reality_defect()
    if core is None:
        lat, c = state.field.lattice, state.field.coeffs
        # the modes that carry mass: the others add 0 to every sum
        mag = np.abs(c).ravel()
        occupied = mag != 0
        modes, mag = np.packbits(occupied).tobytes(), mag[occupied]
        mass = abs(complex(c[0, 0, 0]))
    else:
        lat, c = core.lattice, state.packed
        modes, mag = core, np.abs(c)
        mass = abs(complex(c[core.mean[0]])) if core.mean.size else 0.0
    (k, eta, alpha), w_modes, l1s, s_log_l1, log_br, iz0, m, half_log_m = _support(
        lat, p, modes)
    log_w, dlog_w, _ = lattice_weights(lat, p).tables.mode_weights(t, *w_modes)

    # velocity L2 norms via Plancherel on the original-frame symbols
    v1, v2, v3 = velocity_symbol(t, k, eta, alpha)
    abs2 = mag**2
    abs2 *= m
    u2_sq = v2**2 * abs2
    zero = np.s_[:iz0.size]    # the k = 0 modes

    def _l2(mag2):
        return math.sqrt(lat.delta_eta * float(np.sum(mag2)))

    cols = {
        "t": t,
        "early": int(t <= 10.0),
        "u1_l2": _l2(v1**2 * abs2),
        "u2_zero_l2": _l2(u2_sq[zero]),
        "u2_nonzero_l2": _l2(u2_sq[iz0.size:]),
        "u3_l2": _l2(v3**2 * abs2),
        "theta_l2": _l2(abs2) if state.holds_packed else state.field.l2(),
        "mass_mode": mass,
        "reality_err": reality,
    }

    # weighted columns, all in log space on the one log|c|
    log_c = masked_log(mag)
    log_c += half_log_m
    gev_exp = lam * l1s
    s1, s2, s3, s4, s5, s6, s7 = p.sigmas
    log_a1 = gev_exp + s1 * log_br - log_w    # A^sigma1 with J = 1/w
    # B <f>^-2 on the k = 0 modes, turning log_a1 into A^(sigma1-2) J B there
    log_b = np.log(b_multiplier(eta[zero], alpha[zero])) - 2.0 * log_br[zero]
    ck_lambda = 0.5 * (s_log_l1 + math.log(-lambda_dot(t, p)))
    ck_w = 0.5 * masked_log(dlog_w)
    znz, dz = np.flatnonzero(iz0), np.flatnonzero(iz0 == 0)    # k = 0, alpha != 0 / = 0

    # One row per column: (sigma, extra log weight, modes, t_exp, power) is
    # ||<t>^t_exp A c||^power over the modes, with log A = log_a1 (sigma None)
    # or lambda|f|_1^s + sigma log<f>, plus the extra on those modes.  The CK
    # terms are -lambda_dot <t>^-3 ||A |f|_1^(s/2) c||^2 and <t>^-3 ||A sqrt(d_t w/w) c||^2.
    table = {
        "gev_s1_l10": (None, 0.0, ..., -1.5, 1),
        "gevb0_s1m2_l10": (None, log_b, zero, 0.0, 1),
        "gev0_s2_l10": (s2, 0.0, znz, 1.5, 1),
        "gev_s3_l10": (s3, 0.0, ..., -0.5, 1),
        "gev0_s4_l10": (s4, 0.0, znz, 2.5, 1),
        "gev_s5_l10": (s5, 0.0, ..., 0.0, 1),
        "gev0_s6_l10": (s6, 0.0, znz, 3.0, 1),
        "ck_lambda_l10": (None, ck_lambda, ..., -1.5, 2),
        "ck_w_l10": (None, ck_w, ..., -1.5, 2),
    }
    for name, (sigma, extra, modes, t_exp, power) in table.items():
        logw = log_a1[modes] if sigma is None else gev_exp[modes] + sigma * log_br[modes]
        ln = log_l2_from_logs(lat, log_c[modes] + (logw + extra))
        cols[name] = log10p_from_log(power * (ln + t_exp * ljt))

    # sup over eta of the z- and x-averaged mode at sigma7
    sup_arg = log_c[dz] + lam * np.abs(eta[dz]) ** p.s + 0.5 * s7 * np.log1p(eta[dz] ** 2)
    cols["sup0_s7_l10"] = log10p_from_log(float(np.max(sup_arg, initial=-math.inf)))

    return DiagnosticRow(**cols)
