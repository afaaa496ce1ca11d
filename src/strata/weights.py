"""Time-dependent Fourier multipliers built from the resonance-interval recursion.

The scalar weight w(t, iota) is assembled backward in time from t = 2|iota|:
on each critical interval around the times iota/ell the non-resonant branch
w_NR picks up an algebraic factor and the resonant branch w_R rides on top
of it, so that 1/w records the worst-case growth a mode with dominant
frequency iota can accumulate.

Resonance-selection rule: the mode-selected weight w_k uses w_R if and only
if k != 0, sign k = sign iota and |k| is the index of the resonant interval
that contains t; it uses w_NR otherwise, and w = 1 for |iota| <= 1.  The rule
lives in ``_mode_weights``, which every array evaluation of w_k goes through.
On each smooth piece log w is a sum of constant multiples of logs of
functions linear in t, so d/dt log w is evaluated in closed form
(``WeightTable._pieces``).

A^sigma combines 1/w with a Gevrey exponential and a Sobolev bracket;
because sigma runs into the hundreds all norm computations are done in log
space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .lattice import Lattice, SpectralField, efloor, iota

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

_DEFAULT_SIGMAS = (212.0, 182.0, 152.0, 122.0, 92.0, 62.0, 32.0)


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
    sigmas: tuple[float, ...] = _DEFAULT_SIGMAS

    def __post_init__(self):
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
    """

    def __init__(self, iota_abs: float, c_star: float):
        if iota_abs <= 1.0:
            raise ValueError("weight tables are only built for |iota| > 1")
        I = float(iota_abs)
        self.iota = I
        self.c_star = float(c_star)
        E = efloor(math.sqrt(I))
        self.ell_max = E

        # Breakpoints t_ell and peaks p_ell, ell = 1..E.
        self.t_ell = np.empty(E + 1)
        self.t_ell[0] = 2.0 * I
        ells = np.arange(1, E + 1, dtype=float)
        self.t_ell[1:] = I / ells - I / (2.0 * ells * (ells + 1.0))
        self.peaks = I / ells

        self.b_ell = np.empty(E + 1)
        self.a_ell = np.empty(E + 1)
        self.b_ell[0] = self.a_ell[0] = np.nan
        for ell in range(1, E + 1):
            decr = 1.0 - ell * ell / I
            self.b_ell[ell] = (1.0 - 1.0 / I) if ell == 1 else (2.0 * (ell - 1.0) / ell) * decr
            self.a_ell[ell] = (2.0 * (ell + 1.0) / ell) * decr

        # Backward sweep for the anchor values of log w_NR.  1/w grows like
        # exp(mu/2 sqrt(iota)), which overflows float64 well before
        # iota = 1e4 at larger c_star, so logs are the primary representation.
        self.lv_break = np.empty(E + 1)   # log w_NR at t_ell
        self.lv_peak = np.empty(E + 1)    # log w_NR at iota/ell
        self.lv_break[0] = 0.0
        self.lv_peak[0] = np.nan
        for ell in range(1, E + 1):
            self.lv_peak[ell] = self.c_star * math.log(ell * ell / I) + self.lv_break[ell - 1]
            depth = 1.0 + self.a_ell[ell] * (self.peaks[ell - 1] - self.t_ell[ell])
            self.lv_break[ell] = -(1.0 + self.c_star) * math.log(depth) + self.lv_peak[ell]

        self.log_floor = self.lv_break[E]
        two_sqrt = 2.0 * math.sqrt(I)
        self.resonant = np.zeros(E + 1, dtype=bool)
        self.resonant[1:] = self.t_ell[1:] >= two_sqrt

    @property
    def floor_value(self) -> float:
        return math.exp(self.log_floor)

    def interval_index(self, t):
        """Index ell of the interval [t_ell, t_{ell-1}] containing t; 0 outside [t_E, 2|iota|).

        Array-valued.  A t that lands exactly on an interior breakpoint
        belongs to the earlier-time interval and t_E to interval E; the
        piecewise values agree there anyway.
        """
        t = np.asarray(t, dtype=float)
        E = self.ell_max
        # t_ell[:0:-1] runs upward from t_E to t_1; count the t_ell >= t.
        ell = np.minimum(E + 1 - np.searchsorted(self.t_ell[:0:-1], t), E)
        return np.where((t >= self.t_ell[0]) | (t < self.t_ell[E]), 0, ell)

    def _pieces(self, t, deriv: bool = False):
        """Interval index, w_NR part and w_R - w_NR part of log w (or of d/dt log w).

        On interval ell with peak p let L = 1 + b(t-p) on the right half and
        L = 1 + a(p-t) on the left half.  log w_NR is c* log((ell^2/iota) L)
        plus the anchor at t_{ell-1}, resp. -(1+c*) log L plus the anchor at
        p, and w_R adds log((ell^2/iota) L).  The closed-form derivatives are
        c* b/L, resp. (1+c*) a/L, for w_NR and +b/L, resp. -a/L, for the
        resonant part; both vanish where w is constant (t >= 2|iota|, t <= t_E).
        """
        t = np.asarray(t, dtype=float)
        ell = self.interval_index(t)
        inside = ell > 0
        i = np.maximum(ell, 1)    # any valid interval outside; masked below
        p = self.peaks[i - 1]
        right = t >= p
        coef = np.where(right, self.b_ell[i], self.a_ell[i])
        lin = 1.0 + coef * np.abs(t - p)
        if deriv:
            rate = np.where(inside & (t > self.t_ell[-1]), coef / lin, 0.0)
            nr_rate = np.where(right, self.c_star, 1.0 + self.c_star) * rate
            return ell, nr_rate, np.where(right, rate, -rate)
        scale = i * i / self.iota
        nr = np.where(right, self.c_star * np.log(scale * lin) + self.lv_break[i - 1],
                      -(1.0 + self.c_star) * np.log(lin) + self.lv_peak[i])
        nr = np.where(inside, nr, np.where(t < self.t_ell[0], self.log_floor, 0.0))
        return ell, nr, np.where(inside, np.log(scale) + np.log(lin), 0.0)

    def log_wnr(self, t):
        return self._pieces(t)[1][()]

    def log_wr(self, t):
        """Resonant branch; coincides with w_NR outside the critical intervals."""
        _, nr, lift = self._pieces(t)
        return (lift + nr)[()]

    def wnr(self, t):
        return np.exp(self.log_wnr(t))

    def wr(self, t):
        return np.exp(self.log_wr(t))

    def continuity_defect(self) -> float:
        """Largest relative mismatch of adjacent piece formulas at the breakpoints.

        Computed on log w, where |delta log w| equals the relative jump of w
        to leading order.
        """
        worst = 0.0
        for ell in range(1, self.ell_max + 1):
            p = self.peaks[ell - 1]
            top = self.t_ell[ell - 1]
            bot = self.t_ell[ell]
            scale = math.log(ell * ell / self.iota)
            anchor_above = self.lv_break[ell - 1]
            # right-half formula at the top endpoint vs the anchor above it
            right_at_top = self.c_star * (scale + math.log(1.0 + self.b_ell[ell] * (top - p)))
            worst = max(worst, abs(right_at_top))
            # left/right formulas at the peak
            worst = max(worst, abs(self.c_star * scale + anchor_above - self.lv_peak[ell]))
            # left-half formula at the bottom endpoint vs the anchor below
            ldepth = math.log(1.0 + self.a_ell[ell] * (p - bot))
            left_at_bot = -(1.0 + self.c_star) * ldepth + self.lv_peak[ell]
            worst = max(worst, abs(left_at_bot - self.lv_break[ell]))
            # resonant branch meets w_NR at both interval endpoints
            wr_top = scale + math.log(1.0 + self.b_ell[ell] * (top - p)) + right_at_top
            worst = max(worst, abs(wr_top))
            wr_bot = scale + ldepth + left_at_bot
            worst = max(worst, abs(wr_bot - self.lv_break[ell]))
        return worst


@lru_cache(maxsize=16384)
def weight_table(iota_abs: float, c_star: float) -> WeightTable:
    return WeightTable(iota_abs, c_star)


def critical_times(iota_val: float, p: WeightParams | None = None) -> WeightTable | None:
    """Interval table for |iota| > 1; None when |iota| <= 1 (weight identically 1)."""
    c_star = p.c_star if p is not None else 1.0
    if abs(iota_val) <= 1.0:
        return None
    return weight_table(abs(float(iota_val)), c_star)


def w_nr(t: float, iota_val: float, p: WeightParams) -> float:
    if abs(iota_val) <= 1.0:
        return 1.0
    return weight_table(abs(float(iota_val)), p.c_star).wnr(t)


def w_r(t: float, iota_val: float, p: WeightParams) -> float:
    if abs(iota_val) <= 1.0:
        return 1.0
    return weight_table(abs(float(iota_val)), p.c_star).wr(t)


def _iota_groups(k: np.ndarray, iv: np.ndarray) -> list:
    """Flat modes with |iota| > 1 grouped by |iota|: (|iota|, indices, k, iota)."""
    vals, inverse = np.unique(np.abs(iv), return_inverse=True)
    order = np.argsort(inverse, kind="stable")
    splits = np.cumsum(np.bincount(inverse))[:-1]
    return [(float(val), idx, k[idx], iv[idx])
            for val, idx in zip(vals, np.split(order, splits)) if val > 1.0]


def _mode_weights(t, groups: list, n: int, c_star: float, deriv: bool = False):
    """log w_k (d/dt log w_k when ``deriv``) of n flat modes, and the w_R mask.

    Applies the resonance-selection rule of the module docstring group by
    group; ``t`` is one time for all modes or one time per mode, and modes
    outside ``groups`` (|iota| <= 1) keep w = 1.
    """
    out = np.zeros(n)
    uses_r = np.zeros(n, dtype=bool)
    for val, idx, k, iv in groups:
        tg = t if np.ndim(t) == 0 else t[idx]
        table = weight_table(val, c_star)
        if np.all(tg >= table.t_ell[0]) or deriv and np.all(tg <= table.t_ell[-1]):
            continue    # w = 1 from t = 2|iota| on, and w is frozen up to t_E
        ell, nr, lift = table._pieces(tg, deriv)
        use = (k * iv > 0) & (np.abs(k) == ell) & table.resonant[ell]
        out[idx] = np.where(use, lift, 0.0) + nr
        uses_r[idx] = use
    return out, uses_r


def log_w_k(t, k, eta, alpha, p: WeightParams):
    """log of the mode-selected weight; array-valued, the arguments broadcast."""
    t, k, iv = np.broadcast_arrays(t, k, iota(k, eta, alpha))
    out, _ = _mode_weights(t.ravel(), _iota_groups(k.ravel(), iv.ravel()), k.size,
                           p.c_star)
    return out.reshape(k.shape)[()]


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
    l1 = abs(k) + abs(eta) + abs(alpha)
    br2 = 1.0 + k * k + eta * eta + alpha * alpha
    return (lambda_t(t, p) * l1 ** p.s + 0.5 * sigma * math.log(br2)
            - log_w_k(t, k, eta, alpha, p))


def a_multiplier(sigma: float, t: float, k: int, eta: float, alpha: float,
                 p: WeightParams) -> float:
    return math.exp(log_a_multiplier(sigma, t, k, eta, alpha, p))


class LatticeWeights:
    """Vectorized w_k evaluation over a full lattice.

    Lattice points are grouped by |iota|; each group shares one scalar
    weight table, so an evaluation at time t costs one table lookup per
    distinct |iota| plus flat array writes.
    """

    def __init__(self, lattice: Lattice, params: WeightParams):
        self.lattice = lattice
        self.params = params
        kk = np.broadcast_to(lattice.kx, lattice.shape).ravel()
        self._groups = _iota_groups(kk, lattice.iota_vals.ravel())

    def _eval(self, t: float, deriv: bool) -> np.ndarray:
        out, _ = _mode_weights(t, self._groups, self.lattice.size, self.params.c_star, deriv)
        return out.reshape(self.lattice.shape)

    def log_w(self, t: float) -> np.ndarray:
        return self._eval(t, deriv=False)

    def w(self, t: float) -> np.ndarray:
        return np.exp(self.log_w(t))

    def log_j(self, t: float) -> np.ndarray:
        return -self.log_w(t)

    def dlogw_dt(self, t: float) -> np.ndarray:
        """Closed-form d/dt log w_k: nonnegative, zero where w is constant."""
        return self._eval(t, deriv=True)


@lru_cache(maxsize=8)
def lattice_weights(lattice: Lattice, params: WeightParams) -> LatticeWeights:
    return LatticeWeights(lattice, params)


def masked_log(x: np.ndarray) -> np.ndarray:
    """log x where x > 0 and -inf elsewhere, without a divide warning."""
    pos = x > 0
    return np.where(pos, np.log(np.where(pos, x, 1.0)), -math.inf)


def log_weighted_l2(lattice: Lattice, coeffs: np.ndarray, logw: np.ndarray,
                     mask: np.ndarray | None = None) -> float:
    """log of sqrt(delta_eta * sum |exp(logw) c|^2), stable for huge weights."""
    mag = np.abs(coeffs)
    if mask is not None:
        mag = np.where(mask, mag, 0.0)
    nonzero = mag > 0
    if not np.any(nonzero):
        return -math.inf
    m = masked_log(mag) + logw
    top = float(np.max(m))
    if not math.isfinite(top):
        return -math.inf
    s = float(np.sum(np.exp(2.0 * (m[nonzero] - top))))
    return top + 0.5 * (math.log(s) + math.log(lattice.delta_eta))


def gevrey_log_norm(fieldv: SpectralField, sigma: float, t: float, p: WeightParams,
                    use_j: bool = False, use_b: bool = False,
                    mask: np.ndarray | None = None) -> float:
    """log of the Gevrey-Sobolev norm; -inf for the zero field."""
    lat = fieldv.lattice
    logw = lambda_t(t, p) * lat.l1 ** p.s + sigma * lat.log_brackets
    if use_j:
        logw = logw + lattice_weights(lat, p).log_j(t)
    if use_b:
        logw = logw + np.log(b_multiplier(lat.eta, lat.alpha))
    return log_weighted_l2(lat, fieldv.coeffs, logw, mask)


def gevrey_norm(fieldv: SpectralField, sigma: float, t: float, p: WeightParams,
                use_j: bool = False, use_b: bool = False,
                mask: np.ndarray | None = None) -> float:
    ln = gevrey_log_norm(fieldv, sigma, t, p, use_j, use_b, mask)
    if ln == -math.inf:
        return 0.0
    return math.exp(ln) if ln < 709.0 else math.inf


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


def total_growth_check(iota_max: float, p: WeightParams, n_grid: int = 400,
                       k_cap: float = 10.0) -> TotalGrowthReport:
    """Sweep the total-growth bound 1/w(0,iota) <= K e^{(mu/2) sqrt(iota)}.

    Uses a log grid on (1, iota_max] plus the integers below 100 where the
    interval structure changes fastest.
    """
    if iota_max <= 1.0:
        raise ValueError("iota_max must exceed 1")
    grid = set(np.geomspace(1.001, iota_max, n_grid).tolist())
    grid.update(float(i) for i in range(2, min(101, int(iota_max) + 1)))
    grid.update([float(iota_max)])
    mu = p.mu
    worst_log_k, worst_iota = -math.inf, 0.0
    for iv in sorted(grid):
        if iv <= 1.0:
            continue
        log_growth = -weight_table(iv, p.c_star).log_floor
        log_k = log_growth - 0.5 * mu * math.sqrt(iv)
        if log_k > worst_log_k:
            worst_log_k, worst_iota = log_k, iv
    worst_k = math.exp(worst_log_k) if worst_log_k < 700.0 else math.inf
    return TotalGrowthReport(p.c_star, mu, iota_max, worst_k, worst_iota,
                             worst_k <= k_cap)


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


def _draw_samples(rng: np.random.Generator, n: int, lemma: str, delta_eta: float = 0.25):
    """n sample tuples (t, f1, f2) for one ratio estimate; f = (k, eta, alpha) arrays.

    |k|, |alpha| <= 40 and |eta| <= 160 delta_eta; half the pairs are
    near-diagonal so that the low-separation support conditions of the
    ratio estimates get exercised.  t is uniform on the lemma's time window.
    """
    box, near_box = np.array([40, 160, 40]), np.array([3, 12, 3])
    f2 = rng.integers(-box, box + 1, size=(n, 3))
    near = rng.uniform(size=n) < 0.5
    f1 = np.where(near[:, None], f2 + rng.integers(-near_box, near_box + 1, size=(n, 3)),
                  rng.integers(-box, box + 1, size=(n, 3)))
    f1 = (f1[:, 0], delta_eta * f1[:, 1], f1[:, 2])
    f2 = (f2[:, 0], delta_eta * f2[:, 1], f2[:, 2])
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
    df = np.abs(f1[0] - f2[0]) + np.abs(f1[1] - f2[1]) + np.abs(f1[2] - f2[2])
    mu = p.mu

    def weights(k, iv):
        if lemma == "rNR":
            k = np.zeros(n, dtype=int)   # k = 0 selects w_NR
        return _mode_weights(t, _iota_groups(k, iv), n, p.c_star)

    (lw1, in1), (lw2, in2) = weights(f1[0], i1), weights(f2[0], i2)
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
            l1f2 = np.abs(f2[0]) + np.abs(f2[1]) + np.abs(f2[2])
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
