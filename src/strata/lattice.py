"""Frequency lattice and spectral fields on the periodic shear box.

x and z live on unit tori with integer wavenumbers ``k`` and ``alpha``.
The unbounded vertical direction is truncated to a box of period ``ly``,
so its dual variable ``eta`` runs over integer multiples of
``delta_eta = 2*pi/ly``.  All fields are stored as complex Fourier
coefficients on the full (k, eta, alpha) lattice with the Hermitian
symmetry of a real scalar.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.fft as _fft

__all__ = [
    "efloor",
    "l1_norm",
    "bracket",
    "iota",
    "iota_lipschitz_ok",
    "Lattice",
    "SpectralField",
]


def efloor(x: float) -> int:
    """Integer floor of a nonnegative real."""
    if x < 0:
        raise ValueError(f"efloor expects a nonnegative argument, got {x}")
    return int(math.floor(x))


def l1_norm(k: float, eta: float, alpha: float) -> float:
    return abs(k) + abs(eta) + abs(alpha)


def bracket(k: float, eta: float = 0.0, alpha: float = 0.0) -> float:
    """Japanese bracket sqrt(1 + k^2 + eta^2 + alpha^2)."""
    return math.sqrt(1.0 + k * k + eta * eta + alpha * alpha)


def iota(k: float, eta: float, alpha: float) -> float:
    """Dominant-direction selector.

    Returns eta when |eta| is (weakly) largest, k when |k| is strictly
    largest, and alpha otherwise; ties between alpha and k go to alpha.
    Exactly one branch applies to every frequency.
    """
    ak, ae, aa = abs(k), abs(eta), abs(alpha)
    if ae >= ak and ae >= aa:
        return eta
    if ak > ae and ak > aa:
        return k
    return alpha


def iota_lipschitz_ok(f1: tuple[float, float, float],
                      f2: tuple[float, float, float],
                      slack: float = 1e-9) -> bool:
    """Check ||iota(f1)| - |iota(f2)|| <= |f1 - f2| in the l1 norm.

    ``slack`` absorbs rounding in the eta differences for lattices whose
    delta_eta is not a binary fraction.
    """
    lhs = abs(abs(iota(*f1)) - abs(iota(*f2)))
    rhs = l1_norm(f1[0] - f2[0], f1[1] - f2[1], f1[2] - f2[2])
    return lhs <= rhs + slack * (1.0 + rhs)


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
        if self.ly <= 0:
            raise ValueError(f"ly must be positive, got {self.ly}")

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

    @cached_property
    def l1(self) -> np.ndarray:
        return np.abs(self.kx) + np.abs(self.eta) + np.abs(self.alpha)

    @cached_property
    def brackets(self) -> np.ndarray:
        return np.sqrt(1.0 + self.kx**2 + self.eta**2 + self.alpha**2)

    @cached_property
    def log_brackets(self) -> np.ndarray:
        return np.log(self.brackets)

    @cached_property
    def iota_vals(self) -> np.ndarray:
        ak, ae, aa = np.abs(self.kx), np.abs(self.eta), np.abs(self.alpha)
        k3 = np.broadcast_to(self.kx, self.shape)
        e3 = np.broadcast_to(self.eta, self.shape)
        a3 = np.broadcast_to(self.alpha, self.shape)
        return np.where((ae >= ak) & (ae >= aa), e3,
                        np.where((ak > ae) & (ak > aa), k3, a3))

    def dealias_mask(self, fraction: float = 2.0 / 3.0) -> np.ndarray:
        """Boolean mask keeping |index| <= cut on each axis, cut ~ fraction * n/2.

        At the default 2/3 rule the cut is clamped so quadratic products stay
        alias-free on the kept band (needs 3*cut < n; the naive floor touches
        the contaminated boundary mode when n is divisible by 3).  Fractions
        above 2/3 keep the naive cut and accept aliasing.

        Only fraction 1 keeps each axis's Nyquist index n/2.  The nonlinear
        step drops those modes, as it does for ``mask=None`` (all modes): the
        gradient symbol i*k has no Hermitian partner there.  Every fraction
        below 1 excludes them already.
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
        """Smallest zero-mode damping rate alpha^2/(eta^2+alpha^2)^2 on the lattice.

        Decay-rate fits are only trustworthy for t well below 1/sigma_min;
        beyond that the eta-truncation of the vertical direction dominates.
        """
        al = np.abs(self.alpha)
        mask = al > 0
        denom = np.where(mask, (self.eta**2 + al**2) ** 2, 1.0)
        sig = np.where(mask, al**2 / denom, np.inf)
        return float(np.min(sig))


def _conj_mirror(coeffs: np.ndarray) -> np.ndarray:
    """Coefficients of the complex conjugate field: c(-f) conjugated back onto f."""
    flipped = np.flip(coeffs, axis=(0, 1, 2))
    return np.conj(np.roll(flipped, shift=(1, 1, 1), axis=(0, 1, 2)))


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

    @classmethod
    def from_physical(cls, lattice: Lattice, values: np.ndarray,
                      workers: int = 1) -> "SpectralField":
        coeffs = _fft.fftn(np.asarray(values, dtype=np.float64),
                           workers=workers) / lattice.size
        return cls(lattice, coeffs)

    def to_physical(self, workers: int = 1) -> np.ndarray:
        return np.real(_fft.ifftn(self.coeffs, workers=workers) * self.lattice.size)

    def copy(self) -> "SpectralField":
        return SpectralField(self.lattice, self.coeffs.copy())

    def hermitian_defect(self) -> float:
        """Relative departure from c(-f) = conj(c(f))."""
        mirror = _conj_mirror(self.coeffs)
        scale = float(np.max(np.abs(self.coeffs)))
        if scale == 0.0:
            return 0.0
        return float(np.max(np.abs(self.coeffs - mirror))) / scale

    def symmetrized(self) -> "SpectralField":
        return SpectralField(self.lattice, 0.5 * (self.coeffs + _conj_mirror(self.coeffs)))

    def reality_defect(self, workers: int = 1) -> float:
        """Relative size of the imaginary part of the inverse transform."""
        phys = _fft.ifftn(self.coeffs, workers=workers) * self.lattice.size
        scale = float(np.max(np.abs(phys)))
        if scale == 0.0:
            return 0.0
        return float(np.max(np.abs(np.imag(phys)))) / scale

    def l2(self) -> float:
        """Delta_eta-weighted l2 norm of the coefficients (Plancherel convention)."""
        return math.sqrt(self.lattice.delta_eta * float(np.sum(np.abs(self.coeffs) ** 2)))

    # Mode projections used throughout the diagnostics.

    def zero_mode(self) -> "SpectralField":
        out = np.zeros_like(self.coeffs)
        out[0] = self.coeffs[0]
        return SpectralField(self.lattice, out)

    def nonzero_mode(self) -> "SpectralField":
        out = self.coeffs.copy()
        out[0] = 0.0
        return SpectralField(self.lattice, out)

    def z_nonzero(self) -> "SpectralField":
        out = self.coeffs.copy()
        out[:, :, 0] = 0.0
        return SpectralField(self.lattice, out)

    def z_average(self) -> "SpectralField":
        out = np.zeros_like(self.coeffs)
        out[:, :, 0] = self.coeffs[:, :, 0]
        return SpectralField(self.lattice, out)
