"""Full-lattice Hermitian oracles for the tests.

The solver forms one member of each +-f pair and writes the other as its
conjugate; these helpers check and build Hermitian fields independently
of that packing, by flipping the whole coefficient array.
"""

import numpy as np

from strata.lattice import SpectralField


def conj_mirror(coeffs: np.ndarray) -> np.ndarray:
    """Coefficients of the complex conjugate field: c(-f) conjugated back onto f."""
    flipped = np.flip(coeffs, axis=(0, 1, 2))
    return np.conj(np.roll(flipped, shift=(1, 1, 1), axis=(0, 1, 2)))


def hermitian_defect(field: SpectralField) -> float:
    """Relative departure from c(-f) = conj(c(f))."""
    scale = float(np.max(np.abs(field.coeffs)))
    if scale == 0.0:
        return 0.0
    return float(np.max(np.abs(field.coeffs - conj_mirror(field.coeffs)))) / scale


def symmetrized(field: SpectralField) -> SpectralField:
    """The Hermitian part 0.5 * (c(f) + conj c(-f)) of a field."""
    return SpectralField(field.lattice, 0.5 * (field.coeffs + conj_mirror(field.coeffs)))


def without_nyquist(field: SpectralField) -> SpectralField:
    """The field with every coefficient on an axis's Nyquist index n/2 set to 0.

    -f of such a mode lies on the same Nyquist index, so a Hermitian field
    stays Hermitian.
    """
    c = field.coeffs.copy()
    nx, ny, nz = field.lattice.shape
    c[nx // 2] = c[:, ny // 2] = c[:, :, nz // 2] = 0.0
    return SpectralField(field.lattice, c)
