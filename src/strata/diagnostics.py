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

Every column but mass_mode, reality_err and theta_l2 reduces over the
stored members of a packed state's core (see ``simulate``), each counted
twice for its implied partner (m = 2) but the mean mode.  A state without
a core is packed first, by ``SimState.packed_on(1.0)``, which refuses a
field that is not real on the kept modes.  What a row needs that does not
depend on t is built once per core, as its row plan, from the packed modes
alone: the core's Couette symbols, |f|_1 and log<f> (``lattice.l1_norm``
and ``lattice.log_bracket``) of their k, eta and alpha, and a weight-table
stack over the modes' own |iota|, so a plan and a row form no lattice-sized
array.  A plan holds only values fixed by its (core, weight parameters)
key; each row allocates its own packed-size work arrays, so rows of one
core may be computed in several threads at once.
w_k and d/dt log w_k are evaluated once per row on the plan's groups, the
distinct (|iota| row, resonant key) pairs of its modes, and gathered to
the modes.  From the stack's ``t_flat``, 2 max|iota|, on, w = 1 on every
mode, so a row there evaluates no weights: 80 of the default linear run's
101 rows (t >= 21).  The sup0_s7 column is a max over single modes, so it
reads |c|^2 without m.

A packed state is exactly real by construction, so reality_err is 0.0 on
every row.  theta_l2 is the nonzero m|c|^2 in packed order, which is the
same sum as ``SpectralField.l2`` of the unpacked field, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import lru_cache

import numpy as np

from .lattice import iota, l1_norm, log_bracket
from .symbols import velocity_symbol  # noqa: F401  (the tracer wraps velocity_symbol)
from .weights import (
    WeightParams,
    _TableStack,
    b_multiplier,
    lambda_dot,
    lambda_t,
    lattice_weights,  # noqa: F401  (the benchmark tracer wraps it here)
    log_sum_exp,
    log_weighted_l2,  # noqa: F401  (the benchmark tracer wraps it here)
    masked_log,
)

__all__ = ["DiagnosticRow", "compute_row", "log10p_from_log"]


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
    """The t-independent part of a row over a ``simulate._Core``'s packed modes (k = 0 first).

    The packed modes stand for the whole field: m = 2 for each stored
    member, whose partner is implied, and 1 for the mean mode.  It holds the
    core's Couette symbols as ``modes`` and a weight stack over the modes'
    own |iota| as ``tables``.  Log weights are doubled, as they enter
    log(m|c|^2 A^2).
    """

    def __init__(self, core, p: WeightParams):
        idx, self.modes = core.full_idx, core.modes
        self.m = np.where(idx == 0, 1.0, 2.0)
        k, eta, alpha = self.modes.k, self.modes.eta, self.modes.alpha
        l1, log_br = l1_norm(k, eta, alpha), log_bracket(k, eta, alpha)
        s1, s2, s3, s4, s5, s6, s7 = p.sigmas

        # velocity sums; D = k^2 + (eta - kt)^2 + alpha^2 is formed as
        # (eta - kt)^2 + d0, where d0 is inf at the mean mode so that q = 0 there
        self.ka2 = self.modes.ka * self.modes.ka
        self.d0 = np.where(idx == 0, math.inf, self.modes.ka)

        # the ladder: 2 |f|_1^s (times lambda), 2 sigma log<f>, s log|f|_1 for
        # the lambda CK term, and each mode's weight group
        self.two_l1s = 2.0 * l1**p.s
        self.s_log_l1 = p.s * masked_log(l1)
        self.a1, self.a3, self.a5 = (2.0 * s * log_br for s in (s1, s3, s5))
        iv = iota(k, eta, alpha)
        self.tables = _TableStack(iv, p.c_star)
        row, key = self.tables.modes(k, iv)
        width = int(key.max(initial=0)) + 1
        codes, group = np.unique(row * width + key.astype(np.intp), return_inverse=True)
        self.groups, self.group = (codes // width, codes % width), group

        # the k = 0 modes: B <f>^-2, turning A^sigma1 J into A^(sigma1-2) J B;
        # the alpha != 0 ones at sigma 2, 4, 6; the alpha = 0 ones at sigma 7
        self.n0 = n0 = int(np.count_nonzero(k == 0))
        self.b0 = 2.0 * (np.log(b_multiplier(eta[:n0], alpha[:n0])) - 2.0 * log_br[:n0])
        self.znz, self.dz = np.flatnonzero(alpha[:n0] != 0), np.flatnonzero(alpha[:n0] == 0)
        self.a246 = [2.0 * s * log_br[self.znz] for s in (s2, s4, s6)]
        self.a7 = s7 * np.log1p(eta[self.dz] ** 2)


# the row plan of the last (core, weight parameters) asked
_support = lru_cache(maxsize=1)(_RowPlan)


def compute_row(state, p: WeightParams) -> DiagnosticRow:
    if state.core is None:
        state = state.packed_on(1.0)
    t, c, plan = state.t, state.packed, _support(state.core, p)
    q, log_c2, x, y = np.empty((4, c.size))         # the row's own work arrays
    n0, deta = plan.n0, state.core.lattice.delta_eta
    # from the stack's largest 2|iota| on, every log w and d/dt log w is +0.0:
    # subtracting it would leave every float as it is, and ck_w is 0.0
    weighted = t < plan.tables.t_flat
    if weighted:
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
    total = float(np.sum(q[q != 0]))               # l2's sum, see the module docstring
    if normal and math.isfinite(total):
        with np.errstate(divide="ignore"):
            np.log(q, out=log_c2)
    else:
        np.add(2.0 * masked_log(np.abs(c)), np.log(plan.m), out=log_c2)

    # velocity L2 norms via Plancherel on the original-frame symbols
    sym = plan.modes
    em2 = np.subtract(sym.eta, np.multiply(sym.k, t, out=x), out=x)
    em2 *= em2
    d2 = np.add(em2, plan.d0, out=y)
    d2 *= d2
    q /= d2
    q /= d2                                         # m|c|^2 / D^4
    em2 *= q
    # einsum, not np.dot: BLAS's rounding depends on its thread count
    pairs = {"u1_l2": (sym.kk, em2), "u2_zero_l2": (plan.ka2[:n0], q[:n0]),
             "u2_nonzero_l2": (plan.ka2[n0:], q[n0:]), "u3_l2": (sym.aa, em2)}
    sums = {name: np.einsum("i,i->", *ab) for name, ab in pairs.items()} | {"theta_l2": total}
    cols = {name: math.sqrt(deta * float(s)) for name, s in sums.items()}
    # the mean mode is packed position 0, and a packed state is exactly real
    cols.update(t=t, early=int(t <= 10.0), mass_mode=abs(complex(c[0])), reality_err=0.0)

    # Weighted columns: ||<t>^t_exp A c||^power from ln2, the log-sum-exp of
    # log(m|c|^2 A^2) over the column's modes.  log A is lambda|f|_1^s +
    # sigma log<f>, minus log w with J; the CK terms are -lambda_dot <t>^-3
    # ||A^sigma1 |f|_1^(s/2) c||^2 and <t>^-3 ||A^sigma1 sqrt(d_t w/w) c||^2.
    ljt, log_deta = 0.5 * math.log1p(t * t), math.log(deta)

    def col(ln2, t_exp, power=1):
        return log10p_from_log(power * (0.5 * (ln2 + log_deta) + t_exp * ljt))

    lg = np.multiply(plan.two_l1s, lambda_t(t, p), out=x)
    # the sup is over single modes: log|c|^2 without m
    zero_z = 2.0 * masked_log(np.abs(c[plan.dz])) + lg[plan.dz]
    lg += log_c2                                   # no Sobolev weight, no J
    zero_nz = lg[plan.znz]
    s2, s4, s6 = (log_sum_exp(zero_nz + a) for a in plan.a246)
    cols.update(gev0_s2_l10=col(s2, 1.5), gev0_s4_l10=col(s4, 2.5), gev0_s6_l10=col(s6, 3.0),
                gev_s3_l10=col(log_sum_exp(np.add(lg, plan.a3, out=y)), -0.5),
                gev_s5_l10=col(log_sum_exp(np.add(lg, plan.a5, out=y)), 0.0))
    # sup over eta of the z- and x-averaged mode at sigma7
    cols["sup0_s7_l10"] = log10p_from_log(
        0.5 * float((zero_z + plan.a7).max(initial=-math.inf)))

    lg += plan.a1
    if weighted:
        lg -= np.take(2.0 * log_w, plan.group, out=y)    # A^sigma1 with J = 1/w
    cols["gevb0_s1m2_l10"] = col(log_sum_exp(lg[:n0] + plan.b0), 0.0)
    cols["gev_s1_l10"] = col(log_sum_exp(lg, out=y), -1.5)
    # -lambda_dot = 0 (it underflows for a tiny delta_tilde) gives 0.0, as no mass does
    ck = -lambda_dot(t, p)
    cols["ck_lambda_l10"] = 0.0 if ck == 0.0 else col(
        log_sum_exp(np.add(lg, plan.s_log_l1, out=y)) + math.log(ck), -1.5, 2)
    # d_t w = 0 on every mode (as past the last critical time) gives 0.0
    cols["ck_w_l10"] = 0.0 if not (weighted and np.any(dlog_w > 0)) else col(
        log_sum_exp(np.add(lg, np.take(masked_log(dlog_w), plan.group, out=y), out=y)),
        -1.5, 2)
    return DiagnosticRow(**cols)
