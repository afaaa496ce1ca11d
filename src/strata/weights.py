"""Time-dependent Fourier multipliers built from the resonance-interval recursion.

The scalar weight w(t, iota) is assembled backward in time from t = 2|iota|:
on each critical interval around the times iota/ell the non-resonant branch
w_NR picks up an algebraic factor and the resonant branch w_R rides on top
of it, so that 1/w records the worst-case growth a mode with dominant
frequency iota can accumulate.

Resonance-selection rule: the mode-selected weight w_k uses w_R if and only
if k != 0, sign k = sign iota and |k| is the index of the resonant interval
that contains t; it uses w_NR otherwise, and w = 1 for |iota| <= 1.  The
interval tables are built once, as one stack (``_TableStack``) over the
distinct |iota| > 1, and the ``WeightTable`` of a single |iota| is its
one-row view.  Every evaluation of w runs the piecewise formulas once over
such a stack, at one time or one time per mode, and applies the rule per
mode by gathering; d/dt log w comes in closed form from the same call.

A^sigma combines 1/w with a Gevrey exponential and a Sobolev bracket;
because sigma runs into the hundreds all norm computations are done in log
space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .lattice import Lattice, SpectralField, iota, l1_norm, log_bracket

__all__ = [
    "WeightParams",
    "lambda_t",
    "WeightTable",
    "weight_table",
    "critical_times",
    "w_nr",
    "w_r",
    "w_k",
    "b_multiplier",
    "a_multiplier",
    "log_a_multiplier",
    "LatticeWeights",
    "lattice_weights",
    "log_weighted_l2",
    "gevrey_norm",
    "gevrey_log_norm",
    "TotalGrowthReport",
    "total_growth_check",
    "RatioSweepReport",
    "ratio_lemma_sweep",
]

@dataclass(frozen=True)
class WeightParams:
    """Constants of the multiplier machinery.

    ``c_star`` scales the per-interval growth exponent, ``s`` is the Gevrey
    index, ``lambda_inf``/``delta_tilde``/``a`` parametrize the decreasing
    radius lambda(t) = lambda_inf + delta_tilde/(1+t)^a, and ``sigmas`` is
    the descending Sobolev ladder sigma_1 > ... > sigma_7.
    """

    c_star: float = 1.0
    s: float = 1.0
    lambda_inf: float = 0.1
    delta_tilde: float = 0.05
    a: float = 0.1
    sigmas: tuple[float, ...] = (212.0, 182.0, 152.0, 122.0, 92.0, 62.0, 32.0)

    def __post_init__(self):
        values = (self.c_star, self.s, self.lambda_inf, self.delta_tilde, self.a, *self.sigmas)
        if not all(math.isfinite(v) for v in values):
            raise ValueError(f"weight parameters must be finite, got {values}")
        if self.c_star <= 0:
            raise ValueError("c_star must be positive")
        if not 0.5 < self.s <= 1.0:
            raise ValueError(f"s must lie in (1/2, 1], got {self.s}")
        if self.lambda_inf <= 0 or self.delta_tilde <= 0:
            raise ValueError("lambda_inf and delta_tilde must be positive")
        a_cap = min(self.s / 4.0, self.s - 0.5)
        if not 0.0 < self.a < a_cap:
            raise ValueError(f"a must lie in (0, {a_cap}), got {self.a}")
        if len(self.sigmas) != 7:
            raise ValueError("sigmas must be a descending ladder of seven values")
        if self.sigmas[-1] < 2.0:
            raise ValueError("the last sigma must be >= 2")
        gaps = [self.sigmas[i] - self.sigmas[i + 1] for i in range(6)]
        if any(g < 30.0 for g in gaps):
            raise ValueError("consecutive sigmas must differ by at least 30")

    @property
    def mu(self) -> float:
        return 4.0 * (1.0 + 2.0 * self.c_star)

    def sigma(self, i: int) -> float:
        """1-based accessor into the sigma ladder."""
        if not 1 <= i <= len(self.sigmas):
            raise ValueError(f"sigma index must be in 1..{len(self.sigmas)}, got {i}")
        return self.sigmas[i - 1]


def lambda_t(t: float, p: WeightParams) -> float:
    """Shrinking Gevrey radius lambda(t) = lambda_inf + delta_tilde/(1+t)^a."""
    if t < 0:
        raise ValueError("lambda_t requires t >= 0")
    return p.lambda_inf + p.delta_tilde / (1.0 + t) ** p.a


def lambda_dot(t: float, p: WeightParams) -> float:
    return -p.a * p.delta_tilde / (1.0 + t) ** (p.a + 1.0)


class WeightTable:
    """Piecewise description of w_NR / w_R for one |iota| > 1 and one c_star.

    The recursion runs backward from t0 = 2*iota.  For ell = 1..E(sqrt(iota))
    the critical interval [t_ell, t_{ell-1}] splits at the peak p = iota/ell:

      right half [p, t_{ell-1}]: w_NR = ((ell^2/iota)(1 + b|t-p|))^c_star * w_NR(t_{ell-1})
      left half  [t_ell, p]:     w_NR = (1 + a|t-p|)^(-1-c_star) * w_NR(p)

    and w_R = (ell^2/iota)(1 + {b or a}|t-p|) * w_NR on the respective halves.
    Below t_E the weight is frozen.  The interval with index ell is resonant
    when 2*sqrt(iota) <= t_ell.

    The table is the one-row view of a ``_TableStack``, which builds every
    table: its fields are row 0 of the stack's, of length E + 1 (the peaks,
    indexed from ell = 1, of length E).  ``continuity_defect`` checks that
    adjacent pieces meet, reading w from the stack's evaluator, not these fields.
    """

    def __init__(self, iota_abs: float, c_star: float):
        if iota_abs <= 1.0:
            raise ValueError("weight tables are only built for |iota| > 1")
        self.iota = float(iota_abs)
        self.c_star = float(c_star)
        self._stack = stack = _TableStack(self.iota, self.c_star)
        E = self.ell_max = int(stack.ell_max[0])
        self.t_ell, self.b_ell, self.a_ell, self.lv_break, self.lv_peak, self.resonant = (
            getattr(stack, name)[0, :E + 1]
            for name in ("t_ell", "b_ell", "a_ell", "lv_break", "lv_peak", "resonant"))
        self.peaks = stack.peaks[0, 1:E + 1]
        self.log_floor = stack.log_floor[0]

    def wnr(self, t):
        return np.exp(self._stack.pieces(0, t)[1][0])[()]

    def wr(self, t):
        """Resonant branch; coincides with w_NR outside the critical intervals."""
        nr, lift = self._stack.pieces(0, t)[1]
        return np.exp(lift + nr)[()]

    def continuity_defect(self) -> float:
        """Largest jump of log w_NR or log w_R at a breakpoint t_0..t_E or a peak.

        Read from ``_TableStack.pieces``, the evaluator every run uses.  At
        each mark m and at s, one ulp below and one ulp above it, the defect
        is |v(m) - v(s) - v'(s)(m - s)|, with v' the closed-form d/dt log w of
        the same call.  Both sides are needed: ``pieces`` gives a mark the
        formula of one side, so a jump shows only from the other.  The slope
        term is needed: one ulp at t ~ 2e4, at slopes c* b up to about 2,
        moves a continuous log w by up to about 2e-11.  On log w, |delta log w|
        is the relative jump of w to leading order.
        """
        marks = np.concatenate([self.t_ell, self.peaks])
        t = np.stack([marks, np.nextafter(marks, -math.inf), np.nextafter(marks, math.inf)])
        _, (nr, lift), (d_nr, d_lift) = self._stack.pieces(0, t)
        return max(float(np.abs(v[0] - v[1:] - dv[1:] * (t[0] - t[1:])).max())
                   for v, dv in ((nr, d_nr), (lift + nr, d_lift + d_nr)))


@lru_cache(maxsize=16384)
def weight_table(iota_abs: float, c_star: float) -> WeightTable:
    return WeightTable(iota_abs, c_star)


def critical_times(iota_val: float, p: WeightParams) -> WeightTable | None:
    """Cached interval table for |iota| > 1; None when |iota| <= 1 (weight identically 1)."""
    if abs(iota_val) <= 1.0:
        return None
    return weight_table(abs(float(iota_val)), p.c_star)


def w_nr(t: float, iota_val: float, p: WeightParams) -> float:
    table = critical_times(iota_val, p)
    return 1.0 if table is None else table.wnr(t)


def w_r(t: float, iota_val: float, p: WeightParams) -> float:
    table = critical_times(iota_val, p)
    return 1.0 if table is None else table.wr(t)


class _TableStack:
    """The tables of the distinct |iota| > 1 among ``iv``, built at once, one array per field.

    Row r is the table of vals[r], column ell its interval ell; column 0
    holds t_0 = 2|iota|, the anchor log w_NR(t_0) = 0 and nan in the other
    fields.  Breakpoints past a row's E are +inf, so counting those below t
    finds a row's interval.  The last row, beyond 2|iota| at every t, gives
    w = 1 to |iota| <= 1.  ``t_flat`` is the largest 2|iota| of the stack
    (-inf with no |iota| > 1): from there on every log w and d/dt log w is +0.0.
    """

    def __init__(self, iv, c_star: float):
        # the distinct |iota|: np.unique, whose own path loads numpy.ma
        vals = np.sort(np.abs(iv), axis=None)
        first = np.ones(vals.shape, dtype=bool)
        np.not_equal(vals[1:], vals[:-1], out=first[1:])
        vals = vals[first]
        if vals.size and not np.isfinite(vals[-1]):    # nan sorts last, inf just before it
            raise ValueError(f"weight tables need a finite |iota|, got {vals[-1]}")
        self.vals = vals = vals[vals > 1.0]
        self.c_star = c = float(c_star)
        self.iota = np.append(vals, 1.0)
        E = np.floor(np.sqrt(vals)).astype(int)
        ell = np.arange(1.0, 1 + E.max(initial=1))
        I = vals[:, None]
        on = ell <= E[:, None]
        peaks = I / ell
        t_ell = peaks - I / (2.0 * ell * (ell + 1.0))
        decr = 1.0 - ell * ell / I
        b_ell = np.where(ell == 1.0, 1.0, 2.0 * (ell - 1.0) / ell) * decr
        a_ell = (2.0 * (ell + 1.0) / ell) * decr
        # Backward sweep for the anchors of log w_NR: from t_{ell-1} to the peak
        # it changes by c* log(ell^2/iota), from the peak to t_ell by
        # -(1+c*) log(depth); both factors are 1 past E, where depth can be <= 0.
        # 1/w grows like exp(mu/2 sqrt(iota)), which overflows float64 well
        # before iota = 1e4 at larger c_star, so logs are the primary representation.
        steps = np.empty((vals.size, ell.size, 2))
        steps[..., 0], steps[..., 1] = ell * ell / I, 1.0 + a_ell * (peaks - t_ell)
        steps = np.log(np.where(on[..., None], steps, 1.0)) * (c, -(1.0 + c))
        lv = np.cumsum(steps.reshape(vals.size, 2 * ell.size), axis=1)

        fields = np.zeros((6, vals.size + 1, ell.size + 1))
        fields[:, :-1, 1:] = (np.where(on, t_ell, math.inf), peaks, b_ell, a_ell,
                              lv[:, 0::2], lv[:, 1::2])
        fields[0, :-1, 0] = 2.0 * vals
        fields[1:5, :-1, 0] = math.nan
        fields[0, -1] = math.inf
        fields[0, -1, 0] = -math.inf
        self.t_ell, self.peaks, self.b_ell, self.a_ell, self.lv_peak, self.lv_break = fields
        self.resonant = np.zeros(fields.shape[1:], dtype=bool)
        self.resonant[:-1, 1:] = on & (t_ell >= 2.0 * np.sqrt(I))
        self.ell_max = np.append(E, 0)
        at_floor = np.arange(vals.size + 1), self.ell_max
        self.t_last, self.log_floor = self.t_ell[at_floor], self.lv_break[at_floor]
        self.t_flat = float(self.t_ell[:, 0].max())

    def pieces(self, row, t):
        """Interval index, the (w_NR, w_R - w_NR) parts of log w, and of d/dt log w.

        At the pairs (row, t), which broadcast.  The index is 0 outside
        [t_E, 2|iota|); a t on an interior breakpoint takes the earlier-time
        interval.  On interval ell with peak p, L = 1 + b(t-p) on the right
        half and 1 + a(p-t) on the left.  log w_NR is c* log((ell^2/iota) L)
        plus the anchor at t_{ell-1}, resp. -(1+c*) log L plus the anchor at p;
        w_R adds log((ell^2/iota) L).  The derivatives are c* b/L, resp.
        (1+c*) a/L, and +b/L, resp. -a/L; both vanish where w is constant.
        """
        t = np.asarray(t, dtype=float)
        top, last, c = self.t_ell[row, 0], self.t_last[row], self.c_star
        E = self.ell_max[row]
        below = (self.t_ell[row, 1:] < t[..., None]).sum(axis=-1)
        ell = np.where((t >= top) | (t < last), 0, np.minimum(E + 1 - below, E))
        inside = ell > 0
        i = np.maximum(ell, 1)    # any valid interval outside; masked below
        p = self.peaks[row, i]
        right = t >= p
        coef = np.where(right, self.b_ell[row, i], self.a_ell[row, i])
        lin = 1.0 + coef * np.abs(t - p)
        rate = np.where(inside & (t > last), coef / lin, 0.0)
        scale = i * i / self.iota[row]
        nr = np.where(right, c * np.log(scale * lin) + self.lv_break[row, i - 1],
                      -(1.0 + c) * np.log(lin) + self.lv_peak[row, i])
        nr = np.where(inside, nr, np.where(t < top, self.log_floor[row], 0.0))
        return (ell, (nr, np.where(inside, np.log(scale) + np.log(lin), 0.0)),
                (np.where(right, c, 1.0 + c) * rate, np.where(right, rate, -rate)))

    def modes(self, k, iv):
        """(row, key) of the modes (k, iota), whose |iota| > 1 must be rows; the key
        is the resonant interval index whose w_R the mode takes: |k| if k iota > 0, else 0."""
        a = np.abs(iv)
        return (np.where(a > 1.0, np.searchsorted(self.vals, a), self.vals.size),
                np.where(k * iv > 0, np.abs(k), 0))

    def mode_weights(self, t, row, key):
        """log w_k, d/dt log w_k and the w_R mask of the modes given by ``modes``.

        The selection rule of the module docstring; one time is evaluated
        once per row and gathered, one time per mode at each mode's row.
        """
        scalar = np.ndim(t) == 0
        at = np.arange(self.iota.size) if scalar else row
        ell, (nr, lift), (d_nr, d_lift) = self.pieces(at, t)
        takes_r = np.where(self.resonant[at, ell], ell, -1)
        branches = (0.0 + nr, lift + nr, 0.0 + d_nr, d_lift + d_nr)    # 0.0 + x: no -0.0
        if scalar:
            takes_r, branches = takes_r[row], [x[row] for x in branches]
        use = key == takes_r
        return (np.where(use, branches[1], branches[0]),
                np.where(use, branches[3], branches[2]), use)


def log_w_k(t, k, eta, alpha, p: WeightParams):
    """log of the mode-selected weight; array-valued, the arguments broadcast.

    A scalar call reads the stack held by the cached ``weight_table`` of its |iota|.
    """
    t, k, iv = np.broadcast_arrays(t, k, iota(k, eta, alpha))
    if iv.ndim:
        tables = _TableStack(iv, p.c_star)
    elif (table := critical_times(iv[()], p)) is None:
        return 0.0
    else:
        tables = table._stack
    return tables.mode_weights(t, *tables.modes(k, iv))[0][()]


def w_k(t: float, k: int, eta: float, alpha: float, p: WeightParams) -> float:
    """Mode-selected weight: w_R on the resonant interval matching k, w_NR elsewhere."""
    return math.exp(log_w_k(t, k, eta, alpha, p))


def b_multiplier(eta, alpha):
    """Anisotropic zero-mode factor sqrt(1 + |eta| + alpha^2)."""
    out = np.sqrt(1.0 + np.abs(eta) + np.asarray(alpha, dtype=float) ** 2)
    return out if isinstance(out, np.ndarray) and out.ndim else float(out)


def log_a_multiplier(sigma: float, t: float, k: int, eta: float, alpha: float,
                     p: WeightParams) -> float:
    """log of A^sigma_k = exp(lambda(t)|f|_1^s) <f>^sigma / w_k."""
    return float(lambda_t(t, p) * l1_norm(k, eta, alpha) ** p.s
                 + sigma * log_bracket(k, eta, alpha) - log_w_k(t, k, eta, alpha, p))


def a_multiplier(sigma: float, t: float, k: int, eta: float, alpha: float,
                 p: WeightParams) -> float:
    return math.exp(log_a_multiplier(sigma, t, k, eta, alpha, p))


class LatticeWeights:
    """Vectorized w_k evaluation over a lattice, from one stack of its weight tables."""

    def __init__(self, lattice: Lattice, params: WeightParams):
        iv = iota(lattice.kx, lattice.eta, lattice.alpha)
        self.tables = _TableStack(iv, params.c_star)
        self.groups = self.tables.modes(lattice.kx, iv)

    def log_w(self, t: float) -> np.ndarray:
        return self.tables.mode_weights(t, *self.groups)[0]

    def dlogw_dt(self, t: float) -> np.ndarray:
        """Closed-form d/dt log w_k: nonnegative, zero where w is constant."""
        return self.tables.mode_weights(t, *self.groups)[1]


@lru_cache(maxsize=8)
def lattice_weights(lattice: Lattice, params: WeightParams) -> LatticeWeights:
    return LatticeWeights(lattice, params)


def masked_log(x: np.ndarray) -> np.ndarray:
    """log x where x > 0 and -inf elsewhere, without a divide warning."""
    pos = x > 0
    return np.where(pos, np.log(np.where(pos, x, 1.0)), -math.inf)


def log_sum_exp(x: np.ndarray, out: np.ndarray | None = None) -> float:
    """log sum exp(x), shifted by max x so huge terms stay finite; -inf when x has no
    finite max (no terms, all -inf, or an inf).  ``out`` (default x) takes exp(x - max)."""
    top = float(x.max(initial=-math.inf))
    if not math.isfinite(top):
        return -math.inf
    out = np.subtract(x, top, out=x if out is None else out)
    return top + math.log(float(np.exp(out, out=out).sum()))


def log_weighted_l2(lattice: Lattice, coeffs: np.ndarray, logw: np.ndarray) -> float:
    """log of sqrt(delta_eta * sum |exp(logw) c|^2), stable for huge weights.

    A mode with c = 0 drops out; all zero, or no modes, gives -inf.
    """
    m = masked_log(np.abs(coeffs)) + logw
    return 0.5 * (log_sum_exp(2.0 * m) + math.log(lattice.delta_eta))


def gevrey_log_norm(fieldv: SpectralField, sigma: float, t: float, p: WeightParams) -> float:
    """log of the Gevrey-Sobolev norm, with no J; -inf for the zero field.

    J enters a norm only in the ladder columns of ``diagnostics.compute_row``.
    """
    lat = fieldv.lattice
    f = lat.kx, lat.eta, lat.alpha
    logw = lambda_t(t, p) * l1_norm(*f) ** p.s + sigma * log_bracket(*f)
    return log_weighted_l2(lat, fieldv.coeffs, logw)


def gevrey_norm(fieldv: SpectralField, sigma: float, t: float, p: WeightParams) -> float:
    """The Gevrey-Sobolev norm of ``gevrey_log_norm`` (no J); inf past float64."""
    ln = gevrey_log_norm(fieldv, sigma, t, p)
    return math.exp(ln) if ln < 709.0 else math.inf    # exp(-inf) = 0 for the zero field


@dataclass(frozen=True)
class TotalGrowthReport:
    """Smallest K with 1/w(0, iota) <= K exp(mu/2 sqrt(iota)) over a iota sweep."""

    c_star: float
    mu: float
    iota_max: float
    constant: float
    worst_iota: float
    passed: bool

    def __bool__(self) -> bool:
        return self.passed


def total_growth_check(iota_max: float, p: WeightParams) -> TotalGrowthReport:
    """Sweep the total-growth bound 1/w(0,iota) <= K e^{(mu/2) sqrt(iota)}; K <= 10 passes.

    Uses a 400-point log grid on (1, iota_max] plus the integers below 100
    where the interval structure changes fastest.
    """
    if iota_max <= 1.0:
        raise ValueError("iota_max must exceed 1")
    grid = set(np.geomspace(1.001, iota_max, 400).tolist())
    grid.update(float(i) for i in range(2, min(101, int(iota_max) + 1)))
    grid.update([float(iota_max)])
    vals = np.array(sorted(grid))
    # stacks of 32 values keep memory flat: their rows have up to E(sqrt(iota_max)) columns
    log_growth = -np.concatenate([_TableStack(vals[i:i + 32], p.c_star).log_floor[:-1]
                                  for i in range(0, vals.size, 32)])
    log_k = log_growth - 0.5 * p.mu * np.sqrt(vals)
    i = int(np.argmax(log_k))
    worst_k = math.exp(log_k[i]) if log_k[i] < 700.0 else math.inf
    return TotalGrowthReport(p.c_star, p.mu, iota_max, worst_k, float(vals[i]),
                             worst_k <= 10.0)


@dataclass
class RatioSweepReport:
    """Empirical supremum of lhs/rhs for one of the multiplier-ratio estimates."""

    lemma: str
    samples_requested: int
    samples_used: int
    empirical_constant: float
    worst_tuple: tuple = field(default=())

    def csv_row(self) -> list:
        return [self.lemma, self.samples_used, f"{self.empirical_constant:.6e}",
                " ".join(str(x) for x in self.worst_tuple)]


# Samples are drawn and evaluated in chunks of fixed size, which keeps the
# sweep's memory flat in the sample count.  Peak RSS of `strata weights ratios
# --samples 25000`: 87 MB with one batch per lemma, 83 MB with these chunks
# (most of it numpy code touched for the first time), 81 MB for a per-sample
# Python loop.
_SWEEP_CHUNK = 4096


def _draw_samples(rng: np.random.Generator, n: int, lemma: str):
    """n sample tuples (t, f1, f2) for one ratio estimate; f = (k, eta, alpha) arrays.

    |k|, |alpha| <= 40 and |eta| <= 160 delta_eta with delta_eta = 0.25; half
    the pairs are near-diagonal so that the low-separation support conditions
    of the ratio estimates get exercised.  t is uniform on the lemma's time window.
    """
    box, near_box = np.array([40, 160, 40]), np.array([3, 12, 3])
    f2 = rng.integers(-box, box + 1, size=(n, 3))
    near = rng.uniform(size=n) < 0.5
    f1 = np.where(near[:, None], f2 + rng.integers(-near_box, near_box + 1, size=(n, 3)),
                  rng.integers(-box, box + 1, size=(n, 3)))
    f1 = (f1[:, 0], 0.25 * f1[:, 1], f1[:, 2])
    f2 = (f2[:, 0], 0.25 * f2[:, 1], f2[:, 2])
    a1, a2 = np.abs(iota(*f1)), np.abs(iota(*f2))
    if lemma == "rNR":
        lo, hi = 0.0, 2.0 * np.maximum(np.maximum(a1, a2), 1.0) + 5.0
    elif lemma == "ratioJ":
        lo, hi = 10.0, 2.0 * np.maximum(np.maximum(a1, a2), 6.0)
    else:
        lo, hi = 0.0, 0.5 * np.sqrt(np.minimum(a1, a2))
    return rng.uniform(lo, hi), f1, f2


def _lemma_log_ratios(lemma: str, t: np.ndarray, f1: tuple, f2: tuple, p: WeightParams):
    """Per-sample log(lhs/rhs) of one ratio estimate, and whether the sample counts."""
    n = len(t)
    i1, i2 = iota(*f1), iota(*f2)
    df = l1_norm(f1[0] - f2[0], f1[1] - f2[1], f1[2] - f2[2])
    mu = p.mu

    # one stack for both members of the pairs, one evaluation per member; k = 0 selects w_NR
    tables = _TableStack(np.concatenate([i1, i2]), p.c_star)
    (lw1, _, in1), (lw2, _, in2) = (
        tables.mode_weights(t, *tables.modes(0 if lemma == "rNR" else f[0], iv))
        for f, iv in ((f1, i1), (f2, i2)))
    with np.errstate(divide="ignore", invalid="ignore"):
        if lemma == "rNR":
            return lw1 - lw2 - mu * np.sqrt(df), np.ones(n, dtype=bool)
        if lemma == "ratioJ":
            # J_k / J_l = w_l / w_k; the indicator picks the resonant factor
            k, l = f1[0], f2[0]
            first = in1 & ~in2 & (k != l)
            second = ~in1 & in2
            log_factor = np.where(
                first, np.log(np.abs(i1) / (k * k * (1.0 + np.abs(t - i1 / k)))),
                np.where(second, np.log(l * l * (1.0 + np.abs(t - i2 / l)) / np.abs(i2)), 0.0))
            l1f2 = l1_norm(*f2)
            # outside the lemma's support when neither factor applies
            ok = (t > 10.0) & (first | second | (df <= (3.0 / 16.0) * l1f2))
            return lw2 - lw1 - (log_factor + 2.0 * mu * np.sqrt(df)), ok
        # shortTime: a sample with w_k = w_l counts, with log ratio -inf
        s1, s2 = np.sqrt(np.abs(i1)), np.sqrt(np.abs(i2))
        log_lhs = np.log(np.abs(np.expm1(lw2 - lw1)))
        log_rhs = np.log(np.sqrt(1.0 + df * df) / (s1 + s2)) + 3.0 * mu * np.sqrt(df)
        return log_lhs - log_rhs, np.minimum(s1, s2) > 0


def ratio_lemma_sweep(lemma: str, sample_count: int, p: WeightParams,
                      seed: int = 0) -> RatioSweepReport:
    """Randomized sweep probing one of the weight-ratio estimates.

    ``rNR``:       w_NR(t,i1)/w_NR(t,i2) <= C exp(mu |i1-i2|^(1/2)).
    ``ratioJ``:    J_k/J_l <= C (indicator-selected factor) exp(2 mu |df|^(1/2)), t > 10.
    ``shortTime``: |J_k/J_l - 1| <= C <df> / (sqrt|i1| + sqrt|i2|) exp(3 mu |df|^(1/2))
                   for t <= min(sqrt|i1|, sqrt|i2|)/2.

    Inadmissible tuples are skipped; the empirical constant is the largest
    lhs/rhs over admissible samples with the implicit constant set to 1.
    """
    if lemma not in ("rNR", "ratioJ", "shortTime"):
        raise ValueError(f"unknown lemma sweep {lemma!r}")
    rng = np.random.default_rng(seed)
    sup_log, worst, used = -math.inf, (), 0
    for start in range(0, sample_count, _SWEEP_CHUNK):
        t, f1, f2 = _draw_samples(rng, min(_SWEEP_CHUNK, sample_count - start), lemma)
        log_ratio, ok = _lemma_log_ratios(lemma, t, f1, f2, p)
        used += int(np.count_nonzero(ok))
        log_ratio = np.where(ok, log_ratio, -math.inf)
        i = int(np.argmax(log_ratio))
        if log_ratio[i] > sup_log:
            sup_log = float(log_ratio[i])
            worst = (float(t[i]), int(f1[0][i]), float(f1[1][i]), int(f1[2][i]),
                     int(f2[0][i]), float(f2[1][i]), int(f2[2][i]))

    sup = math.exp(sup_log) if sup_log < 700.0 else math.inf
    return RatioSweepReport(lemma, sample_count, used, sup, worst)
