"""The full-lattice construction of a run's initial state, for the init_field tests.

``init_field`` evaluates the recipe only at the stored members and their
partners; this helper builds every coefficient of the lattice first and
packs afterwards, so the two must agree byte for byte.
"""

import math

import numpy as np

from strata.config import ConfigError
from strata.lattice import l1_norm
from strata.simulate import _core


def packed_init(cfg) -> np.ndarray:
    """The packed initial values, from the recipe's coefficients on the whole lattice."""
    lat = cfg.lattice
    core = _core(lat, cfg.dealias)
    coeffs = np.zeros(lat.shape, dtype=np.complex128)
    if cfg.epsilon == 0.0:
        return core.pack(coeffs)
    l1s = l1_norm(lat.kx, lat.eta, lat.alpha) ** cfg.s
    decay = np.exp(-cfg.lambda_in * l1s)
    support = np.ones(lat.shape, dtype=bool)
    if cfg.init_kmax > 0:
        kc = cfg.init_kmax
        support &= ((np.abs(lat.kx) <= kc) & (np.abs(lat.jy) <= kc)
                    & (np.abs(lat.alpha) <= kc))

    if cfg.recipe == "single":
        ix, jy, iz = 1, 1, 1
        coeffs[ix, jy, iz] = decay[ix, jy, iz]
    elif cfg.recipe == "multimode":
        coeffs[support] = decay[support]
    else:  # random
        rng = np.random.default_rng(cfg.seed)
        phases = rng.uniform(0.0, 2.0 * np.pi, size=lat.shape)
        amps = rng.uniform(0.5, 1.0, size=lat.shape)
        coeffs = np.where(support, amps * decay * np.exp(1j * phases), 0.0)

    kept = 0.5 * (core.pack(coeffs) + np.conj(coeffs.ravel()[core.neg_idx]))
    kept[0] = 0.0
    if not np.any(kept):
        raise ConfigError(f"init recipe {cfg.recipe!r} puts nothing on the kept modes")

    weighted = np.exp(cfg.lambda_in * l1s) * np.abs(core.unpack(kept))
    kept *= cfg.epsilon / math.sqrt(lat.delta_eta * float(np.sum(weighted**2)))
    return kept
