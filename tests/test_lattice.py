import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _hermitian import hermitian_defect, symmetrized
from strata.lattice import (
    Lattice,
    SpectralField,
    iota,
    iota_lipschitz_ok,
    l1_norm,
    log_bracket,
)


def test_l1_and_bracket():
    # the array forms on a lattice's broadcast axes, mode by mode against the
    # scalar values math gives; both even in f, so a partner -f shares its
    # member's values bit for bit
    lat = Lattice(4, 8, 6, ly=7.5)
    f = lat.kx, lat.eta, lat.alpha
    l1, log_br = l1_norm(*f), log_bracket(*f)
    assert l1.shape == log_br.shape == lat.shape
    for ix, iy, iz in np.ndindex(lat.shape):
        k, eta, alpha = (float(a.ravel()[i]) for a, i in zip(f, (ix, iy, iz)))
        assert l1[ix, iy, iz] == abs(k) + abs(eta) + abs(alpha)
        want = math.log(math.sqrt(1.0 + k * k + eta * eta + alpha * alpha))
        assert log_br[ix, iy, iz] == pytest.approx(want, rel=1e-15, abs=0.0)
    neg = np.ix_(-np.arange(4) % 4, -np.arange(8) % 8, -np.arange(6) % 6)
    assert l1[neg].tobytes() == l1.tobytes() and log_br[neg].tobytes() == log_br.tobytes()
    assert l1_norm(0, 0.0, 0) == 0.0 and log_bracket(0, 0.0, 0) == 0.0
    assert l1_norm(-1, -2.0, 0) == 3.0
    assert log_bracket(-1, 2.0, 0) == pytest.approx(math.log(math.sqrt(6)), rel=1e-15)


def test_iota_cases():
    assert iota(2, 1.0, 0) == 2
    assert iota(0, 0.0, 0) == 0.0          # eta branch on the all-zero tie
    assert iota(1, -3.5, 2) == -3.5
    assert iota(1, 1.0, 0) == 1.0          # eta wins ties against k
    assert iota(2, 1.0, 2) == 2            # alpha wins ties against k
    assert iota(0, 2.0, 2) == 2.0          # eta wins ties against alpha


def test_iota_partition_exhaustive():
    # exactly one branch fires for every frequency in the sweep
    deta = 0.25
    for k in range(-8, 9):
        for j in range(-32, 33):
            for a in range(-8, 9):
                eta = deta * j
                ak, ae, aa = abs(k), abs(eta), abs(a)
                branches = [
                    ak > ae and ak > aa,
                    ae >= ak and ae >= aa,
                    aa > ae and aa >= ak,
                ]
                assert sum(branches) == 1, (k, eta, a)
                picked = iota(k, eta, a)
                assert abs(picked) == max(ak, ae, aa)


def test_iota_lipschitz_random_sweep():
    rng = np.random.default_rng(42)
    n = 10**5
    k1, k2 = rng.integers(-50, 51, (2, n))
    a1, a2 = rng.integers(-50, 51, (2, n))
    e1, e2 = 0.25 * rng.integers(-200, 201, (2, n))
    m1 = np.maximum(np.abs(k1), np.maximum(np.abs(e1), np.abs(a1)))
    m2 = np.maximum(np.abs(k2), np.maximum(np.abs(e2), np.abs(a2)))
    lhs = np.abs(m1 - m2)
    rhs = np.abs(k1 - k2) + np.abs(e1 - e2) + np.abs(a1 - a2)
    assert np.all(lhs <= rhs + 1e-9)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(-40, 40), st.integers(-160, 160), st.integers(-40, 40),
       st.integers(-40, 40), st.integers(-160, 160), st.integers(-40, 40))
def test_iota_lipschitz_property(k1, j1, a1, k2, j2, a2):
    f1 = (k1, 0.25 * j1, a1)
    f2 = (k2, 0.25 * j2, a2)
    assert iota_lipschitz_ok(f1, f2)
    assert iota_lipschitz_ok(f1, f1)


class TestLattice:
    def test_validation(self):
        with pytest.raises(ValueError):
            Lattice(7, 16, 8)
        with pytest.raises(ValueError):
            Lattice(8, 16, 8, ly=-1.0)
        for ly in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite"):
                Lattice(8, 16, 8, ly=ly)

    def test_eta_range(self):
        lat = Lattice(8, 16, 8, ly=8 * math.pi)
        assert lat.delta_eta == pytest.approx(0.25, rel=1e-15)
        assert float(np.max(np.abs(lat.eta))) == pytest.approx(
            lat.ny * lat.delta_eta / 2, rel=1e-15)

    def test_iota_vals_match_scalar(self):
        lat = Lattice(8, 16, 8)
        K = np.broadcast_to(lat.kx, lat.shape)
        E = np.broadcast_to(lat.eta, lat.shape)
        A = np.broadcast_to(lat.alpha, lat.shape)
        for idx in [(0, 0, 0), (1, 3, 2), (3, 15, 1), (4, 8, 4), (2, 2, 2)]:
            assert iota(lat.kx, lat.eta, lat.alpha)[idx] == iota(K[idx], E[idx], A[idx])

    def test_dealias_mask(self):
        lat = Lattice(16, 16, 16)
        mask = lat.dealias_mask()
        assert mask[0, 0, 0]
        assert not mask[8, 0, 0]       # Nyquist always dropped
        assert mask[5, 5, 5]
        assert not mask[6, 0, 0]       # above floor(2/3 * 8) = 5
        with pytest.raises(ValueError):
            lat.dealias_mask(0.0)

    def test_dealias_mask_alias_free(self):
        # kept band must satisfy 3*cut < n so that quadratic products of kept
        # modes never alias back onto kept modes
        for n in (6, 12, 16, 32, 96, 128):
            lat = Lattice(n, 4, 4)
            kept = np.abs(lat.kx.ravel()[lat.dealias_mask().any(axis=(1, 2))])
            cut = int(np.max(kept))
            assert 3 * cut < n, (n, cut)

    def test_sigma_min_resolved(self):
        lat = Lattice(8, 16, 8, ly=8 * math.pi)
        eta_max = lat.ny * lat.delta_eta / 2
        assert lat.sigma_min_resolved() == pytest.approx(1.0 / (eta_max**2 + 1) ** 2)


class TestSpectralField:
    def _random_hermitian(self, lat, seed=0):
        rng = np.random.default_rng(seed)
        c = rng.normal(size=lat.shape) + 1j * rng.normal(size=lat.shape)
        return symmetrized(SpectralField(lat, c))

    def test_shape_check(self):
        lat = Lattice(4, 4, 4)
        with pytest.raises(ValueError):
            SpectralField(lat, np.zeros((4, 4, 2), complex))

    def test_symmetrize_gives_real_field(self):
        lat = Lattice(8, 8, 8)
        f = self._random_hermitian(lat)
        assert hermitian_defect(f) < 1e-12
        assert f.reality_defect() < 1e-10

    @pytest.mark.parametrize("shape", [(2, 2, 2), (4, 8, 2), (8, 16, 8), (32, 128, 32)])
    def test_pairs_name_one_member_of_every_pair(self, shape):
        lat = Lattice(*shape)
        f, neg = lat.pairs
        assert not (f.flags.writeable or neg.flags.writeable)
        assert np.all(np.diff(f) > 0)           # flat order: the k = 0 modes first
        flip = np.roll(np.flip(np.arange(lat.size).reshape(shape)), 1, axis=(0, 1, 2))
        assert np.array_equal(neg, flip.ravel()[f])
        # the eight self-conjugate modes are their own partners; every other
        # mode is a member or a member's partner, once
        own = f == neg
        assert np.count_nonzero(own) == 8 and f[own][0] == 0
        seen = np.concatenate((f, neg[~own]))
        assert np.array_equal(np.sort(seen), np.arange(lat.size))

    @pytest.mark.parametrize("shape", [(32, 128, 32), (8, 16, 8), (4, 6, 2), (2, 2, 2),
                                       (2, 4, 6)])
    def test_pairs_match_the_indices_construction(self, shape):
        # the grid of np.indices over the rfft half and ravel_multi_index of
        # f and -f: the construction pairs replaced, bit for bit
        nx, ny, nz = shape
        ix, iy, iz = np.indices((nx, ny, nz // 2 + 1)).reshape(3, -1)
        f = np.ravel_multi_index((ix, iy, iz), shape)
        neg = np.ravel_multi_index((-ix % nx, -iy % ny, -iz % nz), shape)
        member = (iz % (nz // 2) != 0) | (f <= neg)
        got = Lattice(*shape).pairs
        for g, want in zip(got, (f[member], neg[member])):
            assert g.dtype == want.dtype and g.tobytes() == want.tobytes()
            assert not g.flags.writeable

    @pytest.mark.parametrize("hermitian", [True, False])
    def test_l2_is_the_plancherel_norm(self, hermitian):
        lat = Lattice(8, 16, 8)
        rng = np.random.default_rng(4)
        c = rng.normal(size=lat.shape) + 1j * rng.normal(size=lat.shape)
        c[rng.random(lat.shape) < 0.3] = 0.0
        f = symmetrized(SpectralField(lat, c)) if hermitian else SpectralField(lat, c)
        want = math.sqrt(lat.delta_eta * float(np.sum(np.abs(f.coeffs) ** 2)))
        assert f.l2() == pytest.approx(want, rel=1e-14)

    def test_zero_field_defects(self):
        f = SpectralField.zeros(Lattice(4, 4, 4))
        assert hermitian_defect(f) == 0.0
        assert f.reality_defect() == 0.0
        assert f.l2() == 0.0
