"""Frequency lattice and spectral fields on the periodic shear box.

x and z live on unit tori with integer wavenumbers ``k`` and ``alpha``.
The unbounded vertical direction is truncated to a box of period ``ly``,
so its dual variable ``eta`` runs over integer multiples of
``delta_eta = 2*pi/ly``.  A ``Lattice`` caches only its 1-D axes; |f|_1 and
log<f> are ``l1_norm`` and ``log_bracket`` of the modes a caller holds.  A
field is the complex Fourier coefficients of a real scalar on the full
(k, eta, alpha) lattice, so c(-f) = conj c(f).
``Lattice.pairs`` names one stored member of each +-f pair, in one
canonical order; the solver keeps only those members (``simulate._Core``)
and writes each partner as the conjugate, so its fields are real by
construction.  ``SpectralField.l2`` sums over the same pairs in the same
order, so a run's diagnostic row reproduces it bit for bit from the stored
members alone; a check of a run's output ties its last row to its final
checkpoint that way.  ``reality_defect`` measures a departure from reality
with a full c2c ``numpy.fft`` transform; no run path calls it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .symbols import zero_mode_rate

__all__ = [
    "l1_norm",
    "log_bracket",
    "iota",
    "iota_lipschitz_ok",
    "Lattice",
    "SpectralField",
]


def l1_norm(k: float, eta: float, alpha: float) -> float:
    return abs(k) + abs(eta) + abs(alpha)


def log_bracket(k, eta, alpha):
    """log<f>, the log of the bracket sqrt(1 + k^2 + eta^2 + alpha^2); array-valued."""
    return np.log(np.sqrt(1.0 + k * k + eta * eta + alpha * alpha))


def iota(k, eta, alpha):
    """Dominant-direction selector; array-valued, a float for scalar input.

    Returns eta when |eta| is (weakly) largest, k when |k| is strictly
    largest, and alpha otherwise; ties between alpha and k go to alpha.
    Exactly one branch applies to every frequency, which must be finite.
    """
    ak, ae, aa = np.abs(k), np.abs(eta), np.abs(alpha)
    if not np.isfinite(np.maximum(np.maximum(ak, ae), aa)).all():   # the max keeps a NaN
        raise ValueError("iota needs finite k, eta and alpha")
    out = np.where((ae >= ak) & (ae >= aa), eta,
                   np.where((ak > ae) & (ak > aa), k, alpha))
    return float(out) if out.ndim == 0 else out


def iota_lipschitz_ok(f1: tuple[float, float, float],
                      f2: tuple[float, float, float]) -> bool:
    """Check ||iota(f1)| - |iota(f2)|| <= |f1 - f2| in the l1 norm.

    A relative slack of 1e-9 absorbs rounding in the eta differences for
    lattices whose delta_eta is not a binary fraction.
    """
    lhs = abs(abs(iota(*f1)) - abs(iota(*f2)))
    rhs = l1_norm(f1[0] - f2[0], f1[1] - f2[1], f1[2] - f2[2])
    return lhs <= rhs + 1e-9 * (1.0 + rhs)


@dataclass(frozen=True)
class Lattice:
    """Truncated Fourier lattice: ``nx`` x-modes, ``ny`` eta-modes, ``nz`` z-modes."""

    nx: int
    ny: int
    nz: int
    ly: float = 8.0 * math.pi

    def __post_init__(self):
        for name in ("nx", "ny", "nz"):
            n = getattr(self, name)
            if n <= 0 or n % 2 != 0:
                raise ValueError(f"{name} must be a positive even integer, got {n}")
        if not 0 < self.ly < math.inf:
            raise ValueError(f"ly must be positive and finite, got {self.ly}")

    @property
    def shape(self) -> tuple[int, int, int]:
        return (self.nx, self.ny, self.nz)

    @property
    def size(self) -> int:
        return self.nx * self.ny * self.nz

    @property
    def delta_eta(self) -> float:
        return 2.0 * math.pi / self.ly

    # Wavenumber axes in FFT ordering (0, 1, ..., n/2-1, -n/2, ..., -1).

    @cached_property
    def kx(self) -> np.ndarray:
        return np.fft.fftfreq(self.nx, 1.0 / self.nx).reshape(self.nx, 1, 1)

    @cached_property
    def jy(self) -> np.ndarray:
        return np.fft.fftfreq(self.ny, 1.0 / self.ny).reshape(1, self.ny, 1)

    @cached_property
    def eta(self) -> np.ndarray:
        return self.delta_eta * self.jy

    @cached_property
    def alpha(self) -> np.ndarray:
        return np.fft.fftfreq(self.nz, 1.0 / self.nz).reshape(1, 1, self.nz)

    @property
    def pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """Flat indices of one member f of each +-f pair, in canonical order, and of -f.

        The members are the rfft half-spectrum's modes (alpha index 0..nz/2)
        in flat order, so the k = 0 modes come first.  On the two
        self-conjugate planes, alpha = 0 and alpha = nz/2, the member is the
        one whose flat index is not above its partner's; a self-conjugate f
        (the mean mode, the Nyquist corners) is its own partner.  Read-only,
        and formed at each access rather than kept: the two arrays are half
        the lattice each, and a run needs them only to build its core.
        """
        nx, ny, nz = self.shape
        ix, iy = np.arange(nx)[:, None, None], np.arange(ny)[:, None]
        iz = np.arange(nz // 2 + 1)
        f = ((ix * ny + iy) * nz + iz).ravel()
        neg = (((-ix % nx) * ny + (-iy % ny)) * nz + (-iz % nz)).ravel()
        member = np.broadcast_to(iz % (nz // 2) != 0, (nx, ny, iz.size)).ravel() | (f <= neg)
        f, neg = f[member], neg[member]
        f.flags.writeable = neg.flags.writeable = False
        return f, neg

    def dealias_mask(self, fraction: float = 2.0 / 3.0) -> np.ndarray:
        """Boolean mask keeping |index| <= cut on each axis, cut ~ fraction * n/2.

        At the default 2/3 rule the cut is clamped so quadratic products stay
        alias-free on the kept band (needs 3*cut < n; the naive floor touches
        the contaminated boundary mode when n is divisible by 3).  Fractions
        above 2/3 keep the naive cut and accept aliasing.

        Only fraction 1 keeps each axis's Nyquist index n/2.  The nonlinear
        step, whose kept modes are this mask of its fraction, drops them at
        fraction 1 too: the gradient symbol i*k has no Hermitian partner
        there.  Every fraction below 1 excludes them already.
        """
        if not 0.0 < fraction <= 1.0:
            raise ValueError(f"dealias fraction must lie in (0, 1], got {fraction}")

        def cut(n):
            c = math.floor(fraction * (n // 2))
            if fraction <= 2.0 / 3.0 + 1e-12 and 3 * c >= n:
                c -= 1
            return c

        mx = np.abs(self.kx) <= cut(self.nx)
        my = np.abs(self.jy) <= cut(self.ny)
        mz = np.abs(self.alpha) <= cut(self.nz)
        return mx & my & mz

    def sigma_min_resolved(self) -> float:
        """Smallest zero-mode damping rate ``zero_mode_rate`` over alpha != 0.

        Decay-rate fits are only trustworthy for t well below 1/sigma_min;
        beyond that the eta-truncation of the vertical direction dominates.
        """
        sig = np.where(self.alpha != 0, zero_mode_rate(self.eta, self.alpha), np.inf)
        return float(np.min(sig))


@dataclass
class SpectralField:
    """Complex Fourier coefficients of a real scalar on a :class:`Lattice`.

    Coefficients follow the convention theta(x) = sum_f c(f) exp(i f.x),
    i.e. forward transform divided by the number of grid points.
    """

    lattice: Lattice
    coeffs: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.coeffs, dtype=np.complex128)
        if arr.shape != self.lattice.shape:
            raise ValueError(
                f"coefficient shape {arr.shape} does not match lattice {self.lattice.shape}")
        self.coeffs = arr

    @classmethod
    def zeros(cls, lattice: Lattice) -> "SpectralField":
        return cls(lattice, np.zeros(lattice.shape, dtype=np.complex128))

    def copy(self) -> "SpectralField":
        return SpectralField(self.lattice, self.coeffs.copy())

    def reality_defect(self) -> float:
        """Relative size of the imaginary part of the inverse transform."""
        phys = np.fft.ifftn(self.coeffs) * self.lattice.size
        scale = float(np.max(np.abs(phys)))
        if scale == 0.0:
            return 0.0
        return float(np.max(np.abs(np.imag(phys)))) / scale

    def l2(self) -> float:
        """Delta_eta-weighted l2 norm of the coefficients (Plancherel convention).

        The sum runs over ``Lattice.pairs`` in its order: |c(f)|^2 + |c(-f)|^2
        for each member f (|c(f)|^2 alone when f is self-conjugate), with
        |c|^2 = re^2 + im^2 and the terms that are exactly 0 left out.  A real
        field's terms are 2|c(f)|^2, so the same sum over a run state's stored
        members (``diagnostics.compute_row``) gives this value bit for bit.
        """
        f, neg = self.lattice.pairs
        c = self.coeffs.ravel()
        abs2 = np.square(c.real) + np.square(c.imag)
        terms = abs2[f] + np.where(f == neg, 0.0, abs2[neg])
        return math.sqrt(self.lattice.delta_eta * float(np.sum(terms[terms != 0])))
