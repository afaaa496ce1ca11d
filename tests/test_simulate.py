import dataclasses
import functools
import math
import typing

import numpy as np
import pytest
import scipy.fft as _fft
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import strata.simulate as simulate
from _distance import theta_distance_log
from _hermitian import hermitian_defect, symmetrized
from _init_oracle import packed_init
from strata.config import ConfigError, SimConfig, default_config_text
from strata.diagnostics import compute_row
from strata.lattice import Lattice, SpectralField, l1_norm
from strata.simulate import (
    NumericalAbort,
    SimState,
    init_field,
    linear_decay_factors,
    nonlinear_rhs,
    run_simulation,
    run_states,
    step_linear,
    step_nonlinear,
)
from strata.symbols import (
    damping_antiderivative,
    damping_coeff,
    semigroup,
    transport_symbol,
    velocity_symbol,
    zero_mode_rate,
)


SMALL = dict(nx=8, ny=16, nz=8, dt=0.1, t_end=1.0)


def _reference_decay_factors(lat, t0, t1):
    """Two-branch decay factors: the oracle for the one damping antiderivative.

    (F(eta - k t0) - F(eta - k t1)) / k with the arctan closed form F on the
    k != 0 modes, the constant ``zero_mode_rate`` on the k = 0 modes.
    """
    k, eta, alpha = (a.ravel() for a in np.broadcast_arrays(lat.kx, lat.eta, lat.alpha))
    shear = k != 0
    ks = k[shear]
    b = ks**2 + alpha[shear] ** 2
    sq = np.sqrt(b)

    def F(t):
        u = eta[shear] - ks * t
        return u / (2.0 * (b + u * u)) + np.arctan(u / sq) / (2.0 * sq)

    out = np.ones(k.size)
    out[shear] = np.exp(-((F(t0) - F(t1)) / ks))
    out[~shear] = np.exp(-zero_mode_rate(eta[~shear], alpha[~shear]) * (t1 - t0))
    return out.reshape(lat.shape)


def _reference_init_field(cfg):
    """The full-lattice draw repaired by symmetrization: the oracle for init_field."""
    lat = cfg.lattice
    coeffs = np.zeros(lat.shape, dtype=np.complex128)
    if cfg.epsilon == 0.0:
        return SimState(0.0, SpectralField(lat, coeffs))

    l1 = l1_norm(lat.kx, lat.eta, lat.alpha)
    decay = np.exp(-cfg.lambda_in * l1 ** cfg.s)
    support = _without_nyquist(lat, lat.dealias_mask(cfg.dealias)) & (l1 > 0)
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

    fieldv = symmetrized(SpectralField(lat, coeffs))
    fieldv.coeffs[0, 0, 0] = 0.0
    if not np.any(fieldv.coeffs):
        raise ValueError(f"init recipe {cfg.recipe!r} produced an empty field")

    weighted = np.exp(cfg.lambda_in * l1 ** cfg.s) * np.abs(fieldv.coeffs)
    norm = math.sqrt(lat.delta_eta * float(np.sum(weighted**2)))
    fieldv.coeffs *= cfg.epsilon / norm
    return SimState(0.0, fieldv)


def _reference_rhs(state, mask=None):
    """Full-lattice complex-to-complex -(u . grad theta): the oracle for nonlinear_rhs."""
    lat = state.field.lattice
    c = state.field.coeffs
    if mask is not None:
        c = np.where(mask, c, 0.0)
    u1, u2, u3 = transport_symbol(state.t, lat.kx, lat.eta, lat.alpha)
    n = lat.size

    def phys(c_hat):
        return np.real(_fft.ifftn(c_hat) * n)

    adv = (phys(u1 * c) * phys(1j * lat.kx * c)
           + phys(u2 * c) * phys(1j * lat.eta * c)
           + phys(u3 * c) * phys(1j * lat.alpha * c))
    out = -_fft.fftn(adv) / n
    if mask is not None:
        out = np.where(mask, out, 0.0)
    out[0, 0, 0] = 0.0
    return out


def _reference_step(state, dt, mask=None):
    """Full-lattice Lawson RK4 step on _reference_rhs: the oracle for step_nonlinear."""
    lat = state.field.lattice
    t, h = state.t, dt
    c0 = state.field.coeffs
    e_half = linear_decay_factors(lat, t, t + 0.5 * h)
    e_back = linear_decay_factors(lat, t + 0.5 * h, t + h)
    e_full = e_half * e_back

    def rhs(s, c):
        return _reference_rhs(SimState(s, SpectralField(lat, c)), mask)

    k1 = rhs(t, c0)
    k2 = rhs(t + 0.5 * h, e_half * (c0 + 0.5 * h * k1))
    k3 = rhs(t + 0.5 * h, e_half * c0 + 0.5 * h * k2)
    k4 = rhs(t + h, e_full * c0 + h * e_back * k3)
    c1 = e_full * c0 + (h / 6.0) * (e_full * k1 + 2.0 * e_back * (k2 + k3) + k4)
    return SimState(t + h, SpectralField(lat, c1))


def _reference_linear_run(cfg):
    """The stepped linear loop, one step_linear per dt: the oracle for linear runs.

    Yields the state at t = 0 and at every output time, like the row states
    of run_states, and returns the final state.
    """
    state = init_field(cfg)
    n_steps = round(cfg.t_end / cfg.dt)
    out_stride = max(1, round(cfg.output_every / cfg.dt))
    yield state
    for i in range(1, n_steps + 1):
        state = step_linear(state, cfg.dt)
        state.t = i * cfg.dt
        if i % out_stride == 0:
            yield state
    return state


def _yields(cfg):
    """The (t, row, checkpoint) of each state run_states yields for cfg."""
    return [(state.t, row, ckpt) for state, row, ckpt in run_states(cfg)]


def _against_reference(cfg):
    """Run cfg and its stepped reference side by side: (row times, worst rel. error)."""
    ref = _reference_linear_run(cfg)
    times, errs = [], []

    def on_row(state):
        want = next(ref)
        assert state.t == want.t
        times.append(state.t)
        errs.append(_rel_err(state.field.coeffs, want.field.coeffs))

    final = run_simulation(cfg, on_row=on_row)
    with pytest.raises(StopIteration) as stop:
        next(ref)
    want = stop.value.value
    assert final.t == want.t
    errs.append(_rel_err(final.field.coeffs, want.field.coeffs))
    return times, max(errs)


def _random_masked_field(lat, mask, seed):
    rng = np.random.default_rng(seed)
    c = rng.normal(size=lat.shape) + 1j * rng.normal(size=lat.shape)
    fieldv = symmetrized(SpectralField(lat, np.where(mask, c, 0.0)))
    fieldv.coeffs[~mask] = 0.0
    return fieldv


def _without_nyquist(lat, mask):
    out = mask.copy()
    out[lat.nx // 2] = False
    out[:, lat.ny // 2] = False
    out[:, :, lat.nz // 2] = False
    return out


def _rel_err(got, ref):
    return float(np.max(np.abs(got - ref))) / float(np.max(np.abs(ref)))


class TestConfig:
    def test_defaults_valid(self):
        cfg = SimConfig()
        assert cfg.mode == "linear"
        assert cfg.lattice.shape == (32, 128, 32)

    def test_text_roundtrip(self):
        cfg = SimConfig(nx=16, epsilon=5e-4, recipe="multimode", c_star=2.0)
        back = SimConfig.from_text(cfg.to_text())
        assert back == cfg

    def test_text_roundtrip_keeps_every_sigma_digit(self):
        cfg = SimConfig(sigmas=(212.00000000000003, 182.0, 152.0, 122.0, 92.0, 62.0,
                                31.999999999999996))
        assert SimConfig.from_text(cfg.to_text()) == cfg
        assert "sigmas = 212, 182, 152, 122, 92, 62, 32\n" in SimConfig().to_text()

    def test_rejects_unknown_keys(self):
        with pytest.raises(ConfigError):
            SimConfig.from_text("[run]\nwarp_speed = 9\n")
        with pytest.raises(ConfigError):
            SimConfig.from_text("[hyperdrive]\nx = 1\n")
        # configparser keeps [DEFAULT] out of its sections; its keys would go unread
        with pytest.raises(ConfigError, match=r"unknown config section \[DEFAULT\]"):
            SimConfig.from_text("[DEFAULT]\nnx = 8\nny = 16\nnz = 8\n")
        # the command is the mode, so a mode key is unknown, as the former threads key is
        with pytest.raises(ConfigError, match=r"unknown key 'mode' in section \[run\]"):
            SimConfig.from_text("[run]\nmode = nonlinear\n")

    def test_rejects_bad_values(self):
        with pytest.raises(ConfigError):
            SimConfig.from_text("[run]\ndt = fast\n")
        with pytest.raises(ConfigError):
            SimConfig(mode="sideways")
        with pytest.raises(ConfigError):
            SimConfig(dt=-0.1)
        with pytest.raises(ConfigError):
            SimConfig(lambda_in=0.1)   # breaks lambda(0) < 0.9 lambda_in
        with pytest.raises(ConfigError):
            SimConfig(dt=0.3, t_end=1.0)   # t_end not on the step grid
        with pytest.raises(ConfigError, match="checkpoint_every"):
            SimConfig(**SMALL, mode="nonlinear", checkpoint_every=-0.1)
        # a cadence that rounds to zero steps is not on the step grid either
        with pytest.raises(ConfigError, match="t_end"):
            SimConfig(t_end=1e-12)
        with pytest.raises(ConfigError, match="output_every"):
            SimConfig(output_every=1e-12)
        with pytest.raises(ConfigError, match="checkpoint_every"):
            SimConfig(**SMALL, mode="nonlinear", checkpoint_every=1e-12)
        # a linear run writes no checkpoint, so it takes no cadence for one
        with pytest.raises(ConfigError, match="checkpoint_every must be 0"):
            SimConfig.from_text("[run]\ncheckpoint_every = 0.5\n")
        for mode in ("linear", "nonlinear"):
            SimConfig(**SMALL, mode=mode, checkpoint_every=0.0)   # the final checkpoint only

    def test_parsed_values_have_their_annotated_types(self):
        cfg = SimConfig.from_text(default_config_text())
        for name, hint in typing.get_type_hints(SimConfig).items():
            val = getattr(cfg, name)
            if typing.get_origin(hint) is tuple:     # sigmas: tuple[float, ...]
                assert type(val) is tuple and all(type(v) is float for v in val), name
            else:
                assert type(val) is hint, name

    def test_epsilon_bounded_by_the_rescale(self):
        # sum |c|^2 <= epsilon^2 / delta_eta, which must stay finite
        SimConfig(epsilon=1e150)
        for eps in (1e160, 1e300):
            with pytest.raises(ConfigError, match="epsilon"):
                SimConfig(epsilon=eps)
        with pytest.raises(ConfigError, match="epsilon"):
            SimConfig(epsilon=1e10, ly=1e300)    # delta_eta = 2 pi / ly is tiny

    def test_overrides(self):
        cfg = SimConfig.from_text("", {"mode": "nonlinear", "seed": 7})
        assert cfg.mode == "nonlinear" and cfg.seed == 7


class TestInitField:
    def test_zero_epsilon(self):
        st = init_field(SimConfig(**SMALL, epsilon=0.0))
        assert not np.any(st.field.coeffs)

    def test_norm_equals_epsilon(self):
        for recipe in ("single", "multimode", "random"):
            cfg = SimConfig(**SMALL, epsilon=2e-3, recipe=recipe, init_kmax=2)
            st = init_field(cfg)
            lat = cfg.lattice
            l1 = l1_norm(lat.kx, lat.eta, lat.alpha)
            w = np.exp(cfg.lambda_in * l1) * np.abs(st.field.coeffs)
            norm = math.sqrt(lat.delta_eta * float(np.sum(w**2)))
            assert norm == pytest.approx(cfg.epsilon, rel=1e-12)

    def test_structure(self):
        cfg = SimConfig(**SMALL, epsilon=1e-3, recipe="random")
        st = init_field(cfg)
        assert st.field.coeffs[0, 0, 0] == 0.0
        assert hermitian_defect(st.field) < 1e-12
        assert st.field.reality_defect() < 1e-10
        mask = cfg.lattice.dealias_mask()
        assert not np.any(st.field.coeffs[~mask])

    def test_single_recipe_is_conjugate_pair(self):
        cfg = SimConfig(**SMALL, epsilon=1e-3, recipe="single")
        c = init_field(cfg).field.coeffs
        assert np.count_nonzero(c) == 2
        assert c[1, 1, 1] == np.conj(c[-1, -1, -1])

    def test_deterministic(self):
        cfg = SimConfig(**SMALL, epsilon=1e-3, recipe="random", seed=123)
        a = init_field(cfg).field.coeffs
        b = init_field(cfg).field.coeffs
        assert np.array_equal(a, b)
        c = init_field(SimConfig(**SMALL, epsilon=1e-3, recipe="random", seed=124))
        assert not np.array_equal(a, c.field.coeffs)

    @pytest.mark.parametrize("shape", [(8, 16, 8), (32, 128, 32), (4, 4, 4), (6, 10, 8)])
    def test_matches_symmetrized_reference(self, shape):
        # bytes, not array_equal, so a -0.0 for +0.0 counts as a difference
        nx, ny, nz = shape
        for dealias in (2.0 / 3.0, 0.75, 0.9, 1.0):
            for init_kmax in (0, 1, 2):
                for recipe in ("single", "multimode", "random"):
                    for seed in (0, 7):
                        cfg = SimConfig(nx=nx, ny=ny, nz=nz, dealias=dealias,
                                        init_kmax=init_kmax, recipe=recipe, seed=seed)
                        got = init_field(cfg).field.coeffs
                        want = _reference_init_field(cfg).field.coeffs
                        assert got.tobytes() == want.tobytes(), cfg

    @pytest.mark.parametrize("shape", [(32, 128, 32), (8, 16, 8)])
    @pytest.mark.parametrize("recipe", ["single", "multimode", "random"])
    def test_packed_values_match_the_full_lattice_construction(self, shape, recipe):
        # init_field evaluates the recipe at the members and their partners
        # only; the oracle builds the whole lattice and packs after
        nx, ny, nz = shape
        seeds = (0, 7) if recipe == "random" else (0,)
        cases = [dict(init_kmax=kmax, dealias=dealias, seed=seed, s=s)
                 for kmax in (0, 3) for dealias in (2.0 / 3.0, 1.0) for seed in seeds
                 for s in (1.0, 0.75)] + [dict(epsilon=0.0)]
        for case in cases:
            cfg = SimConfig(nx=nx, ny=ny, nz=nz, recipe=recipe, **case)
            assert init_field(cfg).packed.tobytes() == packed_init(cfg).tobytes(), case

    @pytest.mark.parametrize("ly", [7.5, 10.0])
    @pytest.mark.parametrize("recipe", ["single", "multimode", "random"])
    def test_the_eta_cap_is_the_index_cap_off_dyadic_boxes(self, ly, recipe):
        # init_field caps the members' |eta| at init_kmax * delta_eta, the
        # oracle the lattice's y index at init_kmax; delta_eta = 2 pi / ly is
        # no binary fraction here, and the two select the same modes
        for init_kmax in (1, 2, 3):
            cfg = SimConfig(nx=8, ny=32, nz=8, ly=ly, init_kmax=init_kmax, recipe=recipe,
                            seed=init_kmax)
            assert init_field(cfg).packed.tobytes() == packed_init(cfg).tobytes(), init_kmax

    @pytest.mark.parametrize("shape", [(2, 2, 2), (4, 6, 2)])
    @pytest.mark.parametrize("recipe", ["single", "multimode", "random"])
    def test_empty_recipes_raise_as_the_full_lattice_construction(self, shape, recipe):
        # 2x2x2 keeps only the mean mode, 4x6x2 only the alpha = 0 plane
        nx, ny, nz = shape
        for dealias in (2.0 / 3.0, 1.0):
            cfg = SimConfig(nx=nx, ny=ny, nz=nz, recipe=recipe, dealias=dealias)
            try:
                want = packed_init(cfg)
            except ConfigError as exc:
                with pytest.raises(ConfigError, match="puts nothing on the kept modes"):
                    init_field(cfg)
                assert "puts nothing on the kept modes" in str(exc)
            else:
                assert init_field(cfg).packed.tobytes() == want.tobytes()


@pytest.mark.parametrize("step", [step_linear, step_nonlinear])
@pytest.mark.parametrize("dt", [math.nan, math.inf, -math.inf, 0.0, -0.1])
def test_steps_reject_a_dt_that_is_not_positive_and_finite(step, dt):
    # a field state and a packed run state alike, before any arithmetic
    cfg = SimConfig(**SMALL)
    start = init_field(cfg)
    for state in (start, SimState(0.0, start.field.copy())):
        with pytest.raises(ValueError, match="dt must be positive and finite"):
            step(state, dt)


class TestLinearStep:
    def test_zero_mode_closed_form(self):
        lat = Lattice(8, 16, 8)
        c = np.zeros(lat.shape, complex)
        c[0, 1, 1] = 1.0
        c[0, -1, -1] = 1.0
        st = SimState(0.0, SpectralField(lat, c))
        eta = lat.delta_eta
        for _ in range(40):
            st = step_linear(st, 0.25)
        expect = semigroup(st.t, eta, 1.0)
        assert abs(st.field.coeffs[0, 1, 1]) == pytest.approx(expect, rel=1e-12)

    def test_nonzero_mode_matches_quadrature(self):
        lat = Lattice(8, 16, 8)
        c = np.zeros(lat.shape, complex)
        c[1, 0, 0] = 0.5
        c[-1, 0, 0] = 0.5
        st = SimState(0.0, SpectralField(lat, c))
        for _ in range(25):
            st = step_linear(st, 0.4)
        oracle, _ = quad(lambda s: float(damping_coeff(s, 1, 0.0, 0)), 0.0, st.t,
                         epsabs=1e-13, epsrel=1e-13)
        assert abs(st.field.coeffs[1, 0, 0]) == pytest.approx(0.5 * math.exp(-oracle),
                                                              rel=1e-10)

    def test_undamped_modes_unchanged(self):
        lat = Lattice(8, 16, 8)
        c = np.zeros(lat.shape, complex)
        c[0, 3, 0] = 1.0   # k = 0, alpha = 0: no damping
        c[0, -3, 0] = 1.0
        st = step_linear(SimState(0.0, SpectralField(lat, c)), 5.0)
        assert st.field.coeffs[0, 3, 0] == 1.0

    def test_mean_mode_preserved(self):
        lat = Lattice(4, 4, 4)
        c = np.zeros(lat.shape, complex)
        c[0, 0, 0] = 3.0
        st = step_linear(SimState(0.0, SpectralField(lat, c)), 2.0)
        assert st.field.coeffs[0, 0, 0] == 3.0

    def test_packed_propagator_equals_the_full_lattice_one(self):
        # G on the packed modes, partners written by unpack: the full-lattice
        # product's values bit for bit, and the core rides along.  The same
        # field without a core is packed on the core of fraction 1.0 first
        cfg = SimConfig()
        cored = init_field(cfg)
        core = simulate._core(cfg.lattice, cfg.dealias)
        assert cored.core is core
        plain = SimState(0.0, cored.field.copy())
        for t in (0.5, 1.0, 5.0, 20.0, 100.0):
            want = cored.field.coeffs * linear_decay_factors(cfg.lattice, 0.0, t)
            got, via = step_linear(cored, t), step_linear(plain, t)
            assert got.core is core and via.core is simulate._core(cfg.lattice, 1.0)
            assert got.t == via.t == t
            assert np.array_equal(got.field.coeffs, want), t
            assert np.array_equal(via.field.coeffs, want), t
        assert cored.core is core and cored.t == 0.0

    def test_run_states_hold_the_packed_product(self):
        # each row's state holds pack(start) * exp(G(0) - G(t)) bit for bit, and
        # its field, unpacked from those values at each read, is read-only
        cfg = SimConfig(output_every=10.0)
        core = simulate._core(cfg.lattice, cfg.dealias)
        start = init_field(cfg).packed
        states = []
        final = run_simulation(cfg, on_row=states.append)
        assert final is states[-1] and [s.t for s in states] == [10.0 * i for i in range(11)]
        for st in states:
            assert st.core is core
            want = start * np.exp(core.g(0.0) - core.g(st.t))
            assert st.packed.tobytes() == want.tobytes(), st.t
            one, two = st.field.coeffs, st.field.coeffs
            assert one.tobytes() == two.tobytes()
            assert not one.flags.writeable and not two.flags.writeable
            assert st.field.coeffs.tobytes() == core.unpack(want).tobytes(), st.t

    def test_copy_of_a_packed_state_is_independent(self):
        cfg = SimConfig(nx=8, ny=16, nz=8, t_end=1.0)
        core = simulate._core(cfg.lattice, cfg.dealias)
        st = run_simulation(cfg)
        assert st.core is core
        # a packed state is read-only, values and field alike, so it needs no copy
        for arr in (st.packed, st.field.coeffs):
            with pytest.raises(ValueError):
                arr.flat[1] = 7.0
        # a state without a core holds its own field, and one made from its copy holds another
        plain = SimState(st.t, st.field.copy())
        again = SimState(plain.t, plain.field.copy())
        again.field.coeffs[0, 0, 0] = 1.0
        assert plain.field.coeffs[0, 0, 0] == 0.0 and again.core is None

    def test_a_state_holds_a_field_or_packed_values_with_their_core(self):
        lat = Lattice(4, 4, 4)
        core = simulate._core(lat, 1.0)
        packed = np.zeros(core.full_idx.size, complex)
        for kwargs in ({}, {"packed": packed}, {"core": core},
                       {"field": SpectralField.zeros(lat), "core": core},
                       {"field": SpectralField.zeros(lat), "core": core, "packed": packed}):
            with pytest.raises(ValueError):
                SimState(0.0, **kwargs)

    def test_start_time_antiderivative_is_cached_on_the_core(self):
        lat = Lattice(8, 16, 8)
        core = simulate._Core(lat, 2.0 / 3.0)
        g0 = core.g_memo(0.0)
        assert core.g_memo(0.0) is g0 and not g0.flags.writeable
        assert g0.tobytes() == core.g(0.0).tobytes()
        assert core.g_memo(1.5).tobytes() == core.g(1.5).tobytes()

    @pytest.mark.parametrize("shape", [(8, 16, 8), (32, 128, 32)])
    @pytest.mark.parametrize("t0,t1", [(0.0, 0.05), (0.0, 37.3), (3.7, 3.75),
                                       (99.95, 100.0), (2.0, 2.0)])
    def test_factors_match_two_branch_reference(self, shape, t0, t1):
        lat = Lattice(*shape)
        got = linear_decay_factors(lat, t0, t1)
        assert got.shape == lat.shape
        np.testing.assert_allclose(got, _reference_decay_factors(lat, t0, t1),
                                   rtol=1e-13, atol=0)
        assert got[0, 0, 0] == 1.0   # the mean mode is never damped

    @pytest.mark.parametrize("t", [0.0, 2.0, 37.3, 99.95])
    def test_empty_interval_factor_is_exactly_one(self, t):
        assert np.all(linear_decay_factors(Lattice(8, 16, 8), t, t) == 1.0)

    def test_factors_in_unit_interval(self):
        lat = Lattice(8, 16, 8)
        f = linear_decay_factors(lat, 1.0, 3.0)
        assert np.all(f <= 1.0) and np.all(f > 0.0)
        assert f[0, 0, 0] == 1.0

    def test_cached_antiderivative_gives_the_uncached_factors(self):
        lat = Lattice(8, 16, 8)
        for t0, t1 in ((0.0, 0.5), (0.0, 7.3), (0.5, 7.3), (0.0, 7.3)):
            expect = np.exp(damping_antiderivative(t0, lat.kx, lat.eta, lat.alpha)
                            - damping_antiderivative(t1, lat.kx, lat.eta, lat.alpha))
            assert linear_decay_factors(lat, t0, t1).tobytes() == expect.tobytes()


class TestPackedOn:
    def test_a_state_packed_on_the_core_is_returned_as_it_is(self):
        cfg = SimConfig(**SMALL)
        start = init_field(cfg)
        assert start.packed_on(cfg.dealias) is start
        later = step_linear(start, 2.0)
        assert later.packed_on(cfg.dealias) is later

    @pytest.mark.parametrize("fraction", [2.0 / 3.0, 1.0])
    def test_a_run_states_field_packs_back_to_its_values(self, fraction):
        # pack(unpack(c)) is c bit for bit, so a loaded checkpoint of a run
        # packs back onto its run's core exactly
        cfg = SimConfig(**SMALL, epsilon=0.1, recipe="random", mode="nonlinear",
                        dealias=fraction)
        st = step_nonlinear(init_field(cfg), 0.1, fraction)
        back = SimState(st.t, st.field.copy()).packed_on(fraction)
        assert back.core is st.core and back.t == st.t
        assert back.packed.tobytes() == st.packed.tobytes()

    def test_a_two_thirds_state_on_the_core_of_one(self):
        # a 2/3 run state repacked on the core of fraction 1.0 holds the same
        # field bit for bit
        cfg = SimConfig(**SMALL, epsilon=0.1, recipe="random", mode="nonlinear")
        st = step_nonlinear(init_field(cfg), 0.1, cfg.dealias)
        one = st.packed_on(1.0)
        assert one.core is simulate._core(cfg.lattice, 1.0) and one.t == st.t
        assert one.field.coeffs.tobytes() == st.field.coeffs.tobytes()
        # the other way, content past the 2/3 cut is refused
        with pytest.raises(ValueError, match="not real on the kept modes"):
            init_field(dataclasses.replace(cfg, dealias=1.0)).packed_on(cfg.dealias)

    def test_a_state_repacked_on_another_core_unpacks_twice(self, monkeypatch):
        # its field once, to pack it and compare, and the packed values once,
        # to check that they give the field back
        cfg = SimConfig(**SMALL, epsilon=0.1, recipe="random", mode="nonlinear")
        st = step_nonlinear(init_field(cfg), 0.1, cfg.dealias)
        unpack, calls = simulate._Core.unpack, []

        def counting(core, packed):
            calls.append(core)
            return unpack(core, packed)

        monkeypatch.setattr(simulate._Core, "unpack", counting)
        one = st.packed_on(1.0)
        assert calls == [st.core, one.core] and one.core is not st.core


class TestNonlinearRHS:
    def _random_state(self, seed=0, eps=1e-2):
        cfg = SimConfig(**SMALL, epsilon=eps, recipe="random", seed=seed, init_kmax=2)
        return init_field(cfg), cfg.dealias

    def test_zero_field(self):
        lat = Lattice(8, 16, 8)
        st = SimState(0.0, SpectralField.zeros(lat))
        assert not np.any(nonlinear_rhs(st))

    def test_zero_mode_alpha_zero_content_inert(self):
        # k = 0 data without z-dependence carries no transport velocity
        lat = Lattice(8, 16, 8)
        c = np.zeros(lat.shape, complex)
        c[0, 2, 0] = 1.0
        c[0, -2, 0] = 1.0
        st = SimState(3.0, SpectralField(lat, c))
        assert np.max(np.abs(nonlinear_rhs(st, 2.0 / 3.0))) < 1e-16

    def test_divergence_identity(self):
        st, dealias = self._random_state(seed=3)
        st.t = 2.0
        rhs = nonlinear_rhs(st, dealias)
        c = st.field.coeffs
        ip = complex(np.sum(rhs * np.conj(c)))
        scale = float(np.sqrt(np.sum(np.abs(rhs) ** 2) * np.sum(np.abs(c) ** 2)))
        assert abs(ip.real) <= 1e-8 * scale

    def test_hermitian_preserved(self):
        st, dealias = self._random_state(seed=4)
        rhs = SpectralField(st.field.lattice, nonlinear_rhs(st, dealias))
        assert hermitian_defect(rhs) < 1e-12

    def test_mean_mode_pinned(self):
        st, dealias = self._random_state(seed=5)
        assert nonlinear_rhs(st, dealias)[0, 0, 0] == 0.0

    def test_packed_state_is_unpacked_only_for_the_result(self, monkeypatch):
        st, dealias = self._random_state(seed=6)
        want = nonlinear_rhs(SimState(st.t, st.field), dealias)
        unpack, calls = simulate._Core.unpack, []

        def counting(core, packed):
            calls.append(packed.size)
            return unpack(core, packed)

        monkeypatch.setattr(simulate._Core, "unpack", counting)
        got = nonlinear_rhs(st, dealias)
        assert len(calls) == 1 and st._field is None
        assert got.tobytes() == want.tobytes()

    def test_matches_direct_convolution(self):
        # brute-force convolution over signed frequencies as an independent
        # oracle for the whole FFT pipeline (indexing, normalization, mask)
        from strata.symbols import transport_symbol

        lat = Lattice(6, 6, 6, ly=2 * math.pi)
        mask = lat.dealias_mask()
        rng = np.random.default_rng(8)
        c = np.where(mask, rng.normal(size=lat.shape)
                     + 1j * rng.normal(size=lat.shape), 0.0)
        fieldv = symmetrized(SpectralField(lat, c))
        fieldv.coeffs[0, 0, 0] = 0.0
        fieldv.coeffs[~mask] = 0.0
        st = SimState(1.7, fieldv)

        u1, u2, u3 = transport_symbol(st.t, lat.kx, lat.eta, lat.alpha)
        uh = np.stack([u1 * fieldv.coeffs, u2 * fieldv.coeffs, u3 * fieldv.coeffs])
        sidx = [np.fft.fftfreq(n, 1.0 / n).astype(int) for n in lat.shape]
        cut = [int(np.max(np.abs(sidx[0][mask.any(axis=(1, 2))]))),
               int(np.max(np.abs(sidx[1][mask.any(axis=(0, 2))]))),
               int(np.max(np.abs(sidx[2][mask.any(axis=(0, 1))])))]
        oracle = np.zeros(lat.shape, complex)
        nz1 = np.argwhere(np.abs(fieldv.coeffs) > 0)
        for i1, j1, k1 in nz1:
            uvec = uh[:, i1, j1, k1]
            for i2, j2, k2 in nz1:
                s = (sidx[0][i1] + sidx[0][i2], sidx[1][j1] + sidx[1][j2],
                     sidx[2][k1] + sidx[2][k2])
                if any(abs(s[d]) > cut[d] for d in range(3)):
                    continue
                grad = 1j * np.array([sidx[0][i2], lat.delta_eta * sidx[1][j2],
                                      sidx[2][k2]])
                val = np.dot(uvec, grad) * fieldv.coeffs[i2, j2, k2]
                oracle[s[0] % 6, s[1] % 6, s[2] % 6] -= val
        oracle[0, 0, 0] = 0.0

        got = nonlinear_rhs(st, 2.0 / 3.0)
        assert np.max(np.abs(got - oracle)) < 1e-13 * max(np.max(np.abs(oracle)), 1.0)

    @staticmethod
    def _assert_matches_reference(lat, fraction, seed):
        mask = lat.dealias_mask(fraction)
        ref_mask = _without_nyquist(lat, mask)
        fieldv = _random_masked_field(lat, mask, seed)
        for t in (0.0, 3.7, 50.0):
            st = SimState(t, fieldv)
            got, ref = nonlinear_rhs(st, fraction), _reference_rhs(st, ref_mask)
            # relative to the reference, and exact where the reference is 0
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref)), t

    # (2, 16, 2) keeps index 0 alone on x and z, where the product is 0
    # identically; (2, 16, 8) and (8, 2, 8) keep it alone on x or on y; on
    # (32, 22, 32) the x pass's blocks of y rows end in a shorter one
    @pytest.mark.parametrize("shape", [(8, 16, 8), (32, 128, 32), (2, 16, 2), (2, 16, 8),
                                       (8, 2, 8), (32, 22, 32)])
    @pytest.mark.parametrize("fraction", [2.0 / 3.0, 0.75, 0.9, 1.0])
    def test_matches_full_lattice_reference(self, shape, fraction):
        # below 1 the masks hold no Nyquist index and the reference is the
        # unchanged full-lattice pipeline; at 1 the kept set drops Nyquist
        lat = Lattice(*shape)
        mask = lat.dealias_mask(fraction)
        if fraction < 1.0:
            assert np.array_equal(_without_nyquist(lat, mask), mask)
        self._assert_matches_reference(lat, fraction, seed=shape[0] + round(10 * fraction))

    @pytest.mark.parametrize("fraction", [0.0, 1.5, math.nan])
    def test_rejects_a_fraction_outside_the_unit_interval(self, fraction):
        lat = Lattice(8, 16, 8)
        st = SimState(0.0, SpectralField.zeros(lat))
        for call in (lambda: simulate._core(lat, fraction), lambda: nonlinear_rhs(st, fraction),
                     lambda: step_nonlinear(st, 0.1, fraction)):
            with pytest.raises(ValueError, match="dealias fraction"):
                call()

    def test_one_core_per_lattice_and_fraction(self):
        # step_nonlinear keeps a state's packed values only on the very same core
        core = simulate._core(Lattice(8, 16, 8), 2.0 / 3.0)
        assert simulate._core(Lattice(8, 16, 8), 2.0 / 3.0) is core
        assert simulate._core(Lattice(8, 16, 8), 1.0) is not core
        st = SimState(0.0, SpectralField.zeros(Lattice(8, 16, 8)))
        assert step_nonlinear(st, 0.1).core is simulate._core(Lattice(8, 16, 8), 1.0)


# one workspace per core, shared by every example of the property below, so a
# stray write into a buffer's zero padding shows in a later example
_NEUTRALITY_WORK = {}


def _energy_defect(core, c, t, work):
    """|sum m Re(conj(c) N(c))| and ||c|| ||N||, summed over the whole real field.

    m counts each packed mode with its partner: 2, and 1 at the mean mode.
    """
    n = core.rhs(c, core.u(t), work)
    m = np.where(core.full_idx == core.neg_idx, 1.0, 2.0)
    inner = abs(float(np.sum(m * (np.conj(c) * n).real)))
    return inner, math.sqrt(float(np.sum(m * np.abs(c) ** 2)) * float(np.sum(m * np.abs(n) ** 2)))


def _random_packed(core, seed):
    rng = np.random.default_rng(seed)
    c = rng.standard_normal(core.full_idx.size) + 1j * rng.standard_normal(core.full_idx.size)
    c[0] = c[0].real
    return c


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.sampled_from([(2, 16, 8), (4, 8, 4), (6, 10, 4), (8, 16, 8), (8, 32, 8),
                        (12, 24, 6)]),
       st.sampled_from([2.0 / 3.0, 0.6, 0.5, 0.4]),
       st.integers(0, 2**32 - 1), st.floats(0.0, 60.0))
def test_rhs_is_energy_neutral_up_to_the_two_thirds_rule(shape, fraction, seed, t):
    # u is divergence-free against the plain gradient, and below the 2/3 rule
    # the product is alias-free, so sum conj(theta) u . grad theta vanishes
    core = simulate._core(Lattice(*shape), fraction)
    work = _NEUTRALITY_WORK.setdefault((shape, fraction), core.workspace())
    inner, scale = _energy_defect(core, _random_packed(core, seed), t, work)
    assert inner <= 1e-15 * scale


@pytest.mark.parametrize("fraction", [0.8, 1.0])
def test_rhs_energy_defect_is_nonzero_above_the_two_thirds_rule(fraction):
    # aliasing breaks the identity, so the property above can fail
    core = simulate._core(Lattice(8, 16, 8), fraction)
    inner, scale = _energy_defect(core, _random_packed(core, 3), 3.7, core.workspace())
    assert inner > 1e-6 * scale


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(1, 8), st.integers(1, 16), st.integers(1, 8), st.floats(0.05, 1.0),
       st.integers(0, 2**32 - 1))
def test_unpack_is_hermitian_and_pack_inverts_it(hx, hy, hz, fraction, seed):
    lat = Lattice(2 * hx, 2 * hy, 2 * hz)
    core = simulate._Core(lat, fraction)
    assert core.full_idx[0] == 0        # the mean mode is packed position 0
    c = _random_packed(core, seed)
    # signed zeros too: unpack writes them at the members as they are
    rng = np.random.default_rng(seed)
    c.real[rng.random(c.size) < 0.1] = -0.0
    c.imag[rng.random(c.size) < 0.1] = -0.0
    c[0] = c[0].real
    full = core.unpack(c)
    neg = np.roll(np.flip(full), 1, axis=(0, 1, 2))     # c(-f) at f
    assert np.array_equal(full, np.conj(neg))
    assert core.pack(full).tobytes() == c.tobytes()


# the damping integral is additive, and so two linear steps are one: times
# are multiples of 1/64, so t0 + a + b is the same float either way round.
# Bounds, in ulps of the largest |G| of the three times (G) and in eps times
# 1 + that |G| for the propagated values; both measured at most 2.0
@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from([(2, 16, 8), (4, 8, 4), (6, 10, 4), (8, 16, 8), (8, 32, 8),
                        (12, 24, 6)]),
       st.sampled_from([2.0 / 3.0, 0.6, 1.0]), st.integers(0, 2**32 - 1),
       st.integers(0, 64 * 60), st.integers(1, 64 * 40), st.integers(1, 64 * 40))
def test_linear_steps_compose_and_g_is_additive(shape, fraction, seed, n0, na, nb):
    core = simulate._core(Lattice(*shape), fraction)
    t0, a, b = n0 / 64, na / 64, nb / 64
    g0, g1, g2 = core.g(t0), core.g(t0 + a), core.g(t0 + a + b)
    big = np.maximum(np.maximum(np.abs(g0), np.abs(g1)), np.abs(g2))
    assert np.all(np.abs((g0 - g1) + (g1 - g2) - (g0 - g2)) <= 4.0 * np.spacing(big))
    start = SimState(t0, core=core, packed=_random_packed(core, seed))
    two, one = step_linear(step_linear(start, a), b), step_linear(start, a + b)
    assert two.core is one.core is core and two.t == one.t == t0 + a + b
    eps = np.finfo(float).eps
    assert np.all(np.abs(two.packed - one.packed) <= 4.0 * eps * (1.0 + big) * np.abs(one.packed))


class TestPairing:
    @staticmethod
    def _core(lat, fraction):
        """The core of a fraction; for None the one the step takes by default."""
        if fraction is None:
            return step_nonlinear(SimState(0.0, SpectralField.zeros(lat)), 0.1).core
        return simulate._Core(lat, fraction)

    @pytest.mark.parametrize("shape", [(8, 16, 8), (32, 128, 32)])
    @pytest.mark.parametrize("fraction", [2.0 / 3.0, 0.75, 1.0, None])
    def test_neg_idx_pairs_the_kept_set(self, shape, fraction):
        lat = Lattice(*shape)
        core = self._core(lat, fraction)
        # 1.0, the default, keeps every mode but the Nyquist indices
        keep = _without_nyquist(lat, np.ones(lat.shape, bool) if fraction in (1.0, None)
                                else lat.dealias_mask(fraction))
        kept = np.zeros(lat.size, dtype=bool)
        kept[core.full_idx] = True
        kept[core.neg_idx] = True
        assert np.array_equal(kept.reshape(lat.shape), keep)
        # one member of each pair is packed: only the mean is its own partner
        assert np.array_equal(np.intersect1d(core.full_idx, core.neg_idx), [0])
        # -f of every flat index, from a flip of the whole lattice
        neg = np.roll(np.flip(np.arange(lat.size).reshape(lat.shape)), 1, axis=(0, 1, 2))
        neg = neg.ravel()
        assert np.array_equal(core.neg_idx, neg[core.full_idx])
        assert kept[core.neg_idx].all()
        assert np.array_equal(neg[core.neg_idx], core.full_idx)
        # a Hermitian field on the kept set survives pack -> unpack bitwise
        c = _random_masked_field(lat, keep, seed=shape[0]).coeffs
        assert core.unpack(core.pack(c)).tobytes() == c.tobytes()

    @pytest.mark.parametrize("shape", [(8, 16, 8), (32, 128, 32)])
    def test_core_antiderivative_is_the_symbols_one(self, shape):
        # the core's G and the public one are G in closed form bitwise, shear
        # and k = 0 modes alike: -F(eta - kt)/k with b = k^2 + alpha^2 and
        # F(u) = u/(2(b+u^2)) + arctan(u/sqrt b)/(2 sqrt b), and sigma t at k = 0
        lat = Lattice(*shape)
        core = simulate._Core(lat, 2.0 / 3.0)
        k, eta, alpha = core.modes.k, core.modes.eta, core.modes.alpha
        assert np.any(k == 0) and np.any(k != 0)
        shear = k != 0
        ks = np.where(shear, k, 1.0)
        b = ks * ks + alpha * alpha
        for t in (0.0, 0.05, 2.0, 37.3, 100.0):
            u = eta - k * t
            want = np.where(shear, (u / (b + u * u) + np.arctan(u / np.sqrt(b)) / np.sqrt(b))
                            / (-2.0 * ks), zero_mode_rate(eta, alpha) * t)
            public = damping_antiderivative(t, k, eta, alpha)
            assert core.g(t).tobytes() == public.tobytes() == want.tobytes(), t

    @pytest.mark.parametrize("shape", [(8, 16, 8), (32, 128, 32)])
    def test_core_transport_is_the_symbols_one(self, shape):
        # the core's u on the transforms' box, (2c_x - 1) x (2c_y - 1) x c_z,
        # and the public symbol are
        # u = (t(k^2+a^2) + k(eta-kt), -(k^2+a^2), (eta-kt)a) / D^2 bitwise,
        # spelled here on the broadcast box, zero where D = 0
        lat = Lattice(*shape)
        core = simulate._Core(lat, 2.0 / 3.0)
        cx, cy, cz = core.cut
        k, eta, alpha = np.broadcast_arrays(*core.box)
        assert k.shape == (2 * cx - 1, 2 * cy - 1, cz)
        ka = k * k + alpha * alpha
        for t in (0.0, 0.05, 2.0, 37.3, 100.0):
            em = eta - k * t
            D = k * k + em * em + alpha * alpha
            inv2 = 1.0 / np.where(D > 0, D, 1.0) ** 2
            want = (np.where(D > 0, (t * ka + k * em) * inv2, 0.0),
                    np.where(D > 0, -ka * inv2, 0.0),
                    np.where(D > 0, em * alpha * inv2, 0.0))
            public = transport_symbol(t, *core.box)
            for got, pub, ref in zip(core.u(t), public, want):
                assert got.shape == ref.shape, t
                assert got.tobytes() == pub.tobytes() == ref.tobytes(), t

    @pytest.mark.parametrize("shape, fraction, cz", [
        ((8, 16, 2), 1.0, 1),              # the mean alone
        ((32, 128, 32), 2.0 / 3.0, 11),    # the desk lattice
        ((16, 32, 16), 1.0, 8),            # n_z / 2
    ])
    def test_the_z_matrices_are_the_pruned_real_transforms(self, shape, fraction, cz):
        # irfft of the c_z kept modes, zero-padded to n_z / 2 + 1, drops the
        # mean's imaginary part, which the random lines carry
        nz = shape[2]
        core = simulate._Core(Lattice(*shape), fraction)
        assert core.cut[2] == cz
        rng = np.random.default_rng(nz)
        lines = rng.standard_normal((5, 7, cz)) + 1j * rng.standard_normal((5, 7, cz))
        want = np.fft.irfft(lines, n=nz, norm="forward")
        got = np.matmul(lines.view(np.float64), core.z_inv)
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))
        # i alpha folded in: the mean's alpha is 0
        want = np.fft.irfft(1j * core.box[2] * lines, n=nz, norm="forward")
        got = np.matmul(lines.view(np.float64), core.z_dz)
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))
        phys = rng.standard_normal((5, 7, nz))
        want = np.fft.rfft(phys, norm="forward")[..., :cz]
        got = np.matmul(phys, core.z_fwd).view(np.complex128)
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))

    @pytest.mark.parametrize("shape, fraction, cx", [
        ((8, 16, 2), 1.0, 4),
        ((32, 128, 32), 2.0 / 3.0, 11),    # the desk lattice
        ((16, 32, 16), 1.0, 8),            # n_x / 2
        ((2, 16, 8), 1.0, 1),              # index 0 alone
    ])
    def test_the_x_matrices_are_the_pruned_complex_transforms(self, shape, fraction, cx):
        # ifft of the box's 2 c_x - 1 rows, zero-padded to n_x at their
        # lattice rows, plain and times i k, and fft back at those rows
        nx = shape[0]
        core = simulate._Core(Lattice(*shape), fraction)
        assert core.cut[0] == cx
        kept = np.r_[:cx, nx - cx + 1:nx]
        k = core.lattice.kx[kept]
        assert np.array_equal(core.box[0], k)
        rng = np.random.default_rng(nx)
        box = (2 * cx - 1, 5, 7)
        rows = rng.standard_normal(box) + 1j * rng.standard_normal(box)
        for matrix, weight in ((core.x_inv, 1.0), (core.x_dx, 1j * k)):
            padded = np.zeros((nx, 5, 7), dtype=np.complex128)
            padded[kept] = weight * rows
            want = np.fft.ifft(padded, axis=0, norm="forward")
            got = np.matmul(matrix, rows.reshape(2 * cx - 1, -1)).reshape(nx, 5, 7)
            assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))
        phys = rng.standard_normal((nx, 5, 7)) + 1j * rng.standard_normal((nx, 5, 7))
        want = np.fft.fft(phys, axis=0, norm="forward")[kept]
        got = np.matmul(core.x_fwd, phys.reshape(nx, -1)).reshape(want.shape)
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))

    @pytest.mark.parametrize("shape, fraction", [
        ((32, 128, 32), 2.0 / 3.0),        # the desk lattice
        ((32, 22, 32), 1.0),               # blocks of y rows ending in a shorter one
        ((8, 2, 8), 2.0 / 3.0),            # n_y = 2
    ])
    def test_rhs_makes_six_y_passes_and_one_thread_products(self, shape, fraction, monkeypatch):
        # every numpy.fft call of one right-hand side, and the size of every
        # 2-D product of a complex np.matmul, counted with no timing
        core = simulate._Core(Lattice(*shape), fraction)
        cx, _, cz = core.cut
        lines, products = [], []

        def counting(fn):
            def call(a, *args, axis=-1, **kwargs):
                lines.append(np.size(a) // np.shape(a)[axis])
                return fn(a, *args, axis=axis, **kwargs)
            return call

        for name in np.fft.__all__:
            if callable(getattr(np.fft, name)) and not name.endswith(("freq", "shift")):
                monkeypatch.setattr(np.fft, name, counting(getattr(np.fft, name)))
        matmul = np.matmul

        def sized(a, b, **kwargs):
            if np.iscomplexobj(a) or np.iscomplexobj(b):
                products.append(a.shape[-2] * a.shape[-1] * b.shape[-1])
            return matmul(a, b, **kwargs)

        monkeypatch.setattr(np, "matmul", sized)
        c = _random_packed(core, 5)
        got = core.rhs(c, core.u(1.3), core.workspace())
        monkeypatch.undo()
        assert lines == [(2 * cx - 1) * cz] * 6
        # the x pass, six times inverse and once forward, in blocks
        assert len(products) >= 7
        assert max(products) <= simulate._ONE_THREAD_MNK
        want = core.rhs(c, core.u(1.3), core.workspace())
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("shape", [(8, 16, 8), (32, 128, 32)])
    @pytest.mark.parametrize("fraction", [2.0 / 3.0, 1.0, None])
    def test_plane_pair_is_the_partner_on_the_alpha_zero_plane(self, shape, fraction):
        # the partner of a packed alpha = 0 mode is on that plane and is not
        # packed itself, but for the mean mode, its own partner
        lat = Lattice(*shape)
        core = self._core(lat, fraction)
        assert np.array_equal(core.plane, np.flatnonzero(core.modes.alpha == 0))
        partners = core.neg_idx[core.plane]
        assert np.all(partners % lat.nz == 0)
        packed = np.isin(partners, core.full_idx)
        assert np.array_equal(partners[packed], [0])


class TestNonlinearStep:
    def test_reduces_to_linear_for_zero_field(self):
        lat = Lattice(8, 16, 8)
        st = SimState(0.0, SpectralField.zeros(lat))
        out = step_nonlinear(st, 0.1, 2.0 / 3.0)
        assert not np.any(out.field.coeffs)

    def test_fourth_order_refinement(self):
        cfg = SimConfig(nx=8, ny=16, nz=8, epsilon=0.5, dt=0.1, t_end=2.0,
                        recipe="random", init_kmax=2, mode="nonlinear")
        def advance(dt):
            st = init_field(cfg)
            for _ in range(round(2.0 / dt)):
                st = step_nonlinear(st, dt, cfg.dealias)
            return st.field.coeffs

        ref = advance(0.003125)
        errs = [float(np.sqrt(np.sum(np.abs(advance(dt) - ref) ** 2)))
                for dt in (0.2, 0.1, 0.05)]
        for e_coarse, e_fine in zip(errs, errs[1:]):
            assert e_coarse / e_fine == pytest.approx(16.0, abs=1.0)

    def test_mass_mode_pinned_over_long_run(self):
        cfg = SimConfig(nx=8, ny=16, nz=8, epsilon=0.05, dt=0.01, t_end=10.0,
                        recipe="random", init_kmax=2, mode="nonlinear")
        st = init_field(cfg)
        for _ in range(1000):
            st = step_nonlinear(st, 0.01, cfg.dealias)
        assert abs(st.field.coeffs[0, 0, 0]) < 1e-10 * st.field.l2()

    def test_hermitian_and_real_preserved(self):
        cfg = SimConfig(nx=8, ny=16, nz=8, epsilon=0.1, dt=0.1, t_end=1.0,
                        recipe="random", init_kmax=2, mode="nonlinear")
        st = init_field(cfg)
        for _ in range(10):
            st = step_nonlinear(st, 0.1, cfg.dealias)
        assert hermitian_defect(st.field) < 1e-12
        assert st.field.reality_defect() < 1e-10

    def test_matches_full_lattice_reference_steps(self):
        cfg = SimConfig(nx=8, ny=16, nz=8, epsilon=0.5, dt=0.1, t_end=2.0,
                        recipe="random", init_kmax=2, mode="nonlinear", seed=9)
        mask = cfg.lattice.dealias_mask()
        st = ref = init_field(cfg)
        for _ in range(20):
            st = step_nonlinear(st, 0.1, cfg.dealias)
            ref = _reference_step(ref, 0.1, mask)
        assert st.t == ref.t
        assert _rel_err(st.field.coeffs, ref.field.coeffs) <= 1e-12

    @pytest.mark.parametrize("where", [(1, 2, 0), (-3, 5, 0), (0, 0, 0)],
                             ids=["member", "partner", "mean"])
    def test_stepping_a_plane_defect_gives_a_real_state(self, where):
        # a field without a core may fail to pair on the alpha = 0 plane; the
        # step keeps one member of each pair and the mean's real part, so it
        # returns an exactly real state
        cfg = SimConfig(**SMALL, epsilon=0.1, recipe="random", init_kmax=2,
                        mode="nonlinear")
        c = init_field(cfg).field.coeffs.copy()
        c[where] += 1j * np.max(np.abs(c))    # partner untouched
        st = SimState(0.0, SpectralField(cfg.lattice, c))
        assert hermitian_defect(st.field) > 0.1 and st.field.reality_defect() > 1e-6
        out = step_nonlinear(st, 0.1, cfg.dealias)
        assert hermitian_defect(out.field) == 0.0
        assert out.field.reality_defect() < 1e-14

    def test_dealias_one_run(self):
        # the fraction-1 dealias mask keeps the Nyquist indices; init and the step drop them
        cfg = SimConfig(nx=8, ny=16, nz=8, epsilon=1e-2, dt=0.1, t_end=1.0,
                        output_every=0.1, dealias=1.0, recipe="random",
                        mode="nonlinear")
        c0 = init_field(cfg).field.coeffs
        assert not (np.any(c0[4]) or np.any(c0[:, 8]) or np.any(c0[:, :, 4]))
        params = cfg.weight_params
        rows = []
        run_simulation(cfg, on_row=lambda s: rows.append(compute_row(s, params)))
        assert len(rows) == 11
        for row in rows:
            assert all(math.isfinite(v) for v in row.values())
            assert row.reality_err < 1e-10
        theta_scale = max(r.theta_l2 for r in rows)
        assert max(r.mass_mode for r in rows) < 1e-12 * theta_scale

    def test_aborts_on_nonfinite(self):
        lat = Lattice(4, 4, 4)
        c = np.zeros(lat.shape, complex)
        c[1, 1, 1] = np.inf
        st = SimState(0.0, SpectralField(lat, c))
        with pytest.raises(NumericalAbort):
            step_nonlinear(st, 0.1, 2.0 / 3.0)

    def test_run_states_carry_the_core_and_hold_packed_values(self):
        # init_field's state and every step's are packed on the dealias fraction's core
        cfg = SimConfig(**SMALL, epsilon=0.1, init_kmax=2, mode="nonlinear",
                        output_every=0.2, checkpoint_every=0.5)
        core = simulate._core(cfg.lattice, cfg.dealias)
        rows, ckpts = [], []
        final = run_simulation(cfg, on_row=rows.append, on_checkpoint=ckpts.append)
        assert [s.t for s in rows] == pytest.approx([0.2 * i for i in range(6)])
        assert final is rows[-1] and [s.t for s in ckpts] == [0.5, 1.0]
        assert all(s.core is core and s.packed is not None for s in rows + ckpts)

    def test_packed_step_makes_no_unpack(self, monkeypatch):
        cfg = SimConfig(**SMALL, epsilon=0.1, init_kmax=2, mode="nonlinear")
        st = step_nonlinear(init_field(cfg), 0.1, cfg.dealias)
        want = step_nonlinear(st, 0.1, cfg.dealias).packed

        def forbidden(*args, **kwargs):
            raise AssertionError("a packed step unpacked")

        monkeypatch.setattr(simulate._Core, "unpack", forbidden)
        got = step_nonlinear(st, 0.1, cfg.dealias)
        assert got.core is st.core
        assert got.packed.tobytes() == want.tobytes()

    def test_step_evaluates_the_public_transport_symbol_at_each_stage_time(self, monkeypatch):
        # the core reads transport_symbol from the module at each call, so a
        # wrapper installed there sees every evaluation of the step
        cfg = SimConfig(**SMALL, epsilon=0.1, init_kmax=2, mode="nonlinear")
        st = step_nonlinear(init_field(cfg), 0.1, cfg.dealias)
        want = step_nonlinear(st, 0.25, cfg.dealias).packed
        times = []

        def counting(t, *box):
            times.append(t)
            return transport_symbol(t, *box)

        monkeypatch.setattr(simulate, "transport_symbol", counting)
        got = step_nonlinear(st, 0.25, cfg.dealias)
        assert times == [st.t, st.t + 0.125, st.t + 0.25]
        assert got.packed.tobytes() == want.tobytes()

    @pytest.mark.parametrize("shape", [(2, 16, 2), (2, 16, 8), (8, 2, 8)])
    @pytest.mark.parametrize("fraction", [2.0 / 3.0, 0.8, 1.0])
    def test_a_run_equals_lone_steps_on_fresh_cores(self, shape, fraction, monkeypatch):
        # run_simulation holds one workspace and reads the end symbols back
        # from the core's memo; the lone steps each get a fresh core, so a
        # fresh workspace and an empty memo, and step to each grid time as the
        # run does.  Some cut is 1 on each lattice
        nx, ny, nz = shape
        cfg = SimConfig(nx=nx, ny=ny, nz=nz, dt=0.1, t_end=0.6, output_every=0.1,
                        epsilon=0.5, recipe="random", mode="nonlinear", dealias=fraction)
        run = []
        run_simulation(cfg, on_row=run.append)
        monkeypatch.setattr(simulate, "_core", simulate._Core)
        lone = [init_field(cfg)]
        for i in range(1, 7):
            lone.append(step_nonlinear(lone[-1], i * cfg.dt - lone[-1].t, fraction))
        assert [s.t for s in run] == [s.t for s in lone]
        assert [s.packed.tobytes() for s in run] == [s.packed.tobytes() for s in lone]

    @pytest.mark.parametrize("shape", [(2, 16, 2), (2, 16, 8), (8, 2, 8), (8, 16, 8)])
    @pytest.mark.parametrize("fraction", [2.0 / 3.0, 0.8, 1.0])
    def test_a_step_reads_no_stale_value_of_its_workspace(self, shape, fraction):
        # a workspace that served a step, with every slot but the
        # coefficients' set to NaN: the x pass's input, the y pass's lines and
        # the physical arrays, which hold the other passes' buffers.  A NaN
        # left in a gap a pass reads as zeros would spread to the result
        nx, ny, nz = shape
        cfg = SimConfig(nx=nx, ny=ny, nz=nz, epsilon=0.5, recipe="random", mode="nonlinear",
                        dealias=fraction)
        st = init_field(cfg)
        work = st.core.workspace()
        step_nonlinear(st, 0.1, fraction, work)
        coeffs = work[0]
        coeffs.base[coeffs.size:] = np.nan
        got = step_nonlinear(st, 0.1, fraction, work)
        assert got.packed.tobytes() == step_nonlinear(st, 0.1, fraction).packed.tobytes()

    def test_consecutive_steps_share_the_symbols_at_their_common_time(self, monkeypatch):
        # a fresh core evaluates u at the first step's start, middle and end;
        # the second step reads its start time's u back from the core's memo
        cfg = SimConfig(**SMALL, epsilon=0.1, init_kmax=2, mode="nonlinear")
        monkeypatch.setattr(simulate, "_core", functools.lru_cache(maxsize=8)(simulate._Core))
        times = []

        def counting(t, *box):
            times.append(t)
            return transport_symbol(t, *box)

        monkeypatch.setattr(simulate, "transport_symbol", counting)
        st = step_nonlinear(init_field(cfg), 0.25, cfg.dealias)
        assert times == [0.0, 0.125, 0.25]
        step_nonlinear(st, 0.25, cfg.dealias)
        assert times == [0.0, 0.125, 0.25, 0.375, 0.5]
        assert not any(a.flags.writeable for a in st.core.u_memo(0.5))

    def test_a_run_ends_each_step_on_its_grid_time(self, monkeypatch):
        # i dt - (i-1) dt is exact, so step i ends on i dt bit for bit and the
        # next step reads u there from the memo: u at t = 0, then at each
        # step's middle and end.  Stepping by dt misses i dt at 5 of these 30
        cfg = SimConfig(**{**SMALL, "t_end": 3.0}, epsilon=0.1, init_kmax=2, mode="nonlinear")
        monkeypatch.setattr(simulate, "_core", functools.lru_cache(maxsize=8)(simulate._Core))
        times = []

        def counting(t, *box):
            times.append(t)
            return transport_symbol(t, *box)

        monkeypatch.setattr(simulate, "transport_symbol", counting)
        states = [state for state, _, _ in run_states(cfg)]
        assert [s.t for s in states] == [i * cfg.dt for i in range(31)]
        assert len(times) == 2 * 30 + 1

    @pytest.mark.parametrize("fraction", [2.0 / 3.0, 1.0])
    def test_stepping_with_a_core_equals_stepping_without(self, fraction):
        # the packed values a state carries are the ones packing its field gives
        cfg = SimConfig(**SMALL, epsilon=0.1, recipe="random", mode="nonlinear",
                        dealias=fraction)
        lat = cfg.lattice
        st = init_field(cfg)
        for _ in range(3):
            plain = SimState(st.t, SpectralField(lat, st.core.unpack(st.packed)))
            st, ref = step_nonlinear(st, 0.1, fraction), step_nonlinear(plain, 0.1, fraction)
            assert ref.core is st.core and st.t == ref.t
            assert st.packed.tobytes() == ref.packed.tobytes()

    def test_linear_limit_in_epsilon(self):
        # nonlinear correction scales linearly in epsilon relative to the state
        def dist(eps):
            cfg = SimConfig(nx=8, ny=16, nz=8, epsilon=eps, dt=0.05, t_end=3.0,
                            recipe="random", init_kmax=2, mode="nonlinear", seed=1)
            st_nl = init_field(cfg)
            st_l = st_nl
            for _ in range(60):
                st_nl = step_nonlinear(st_nl, 0.05, cfg.dealias)
                st_l = step_linear(st_l, 0.05)
            return float(np.sqrt(np.sum(np.abs(st_nl.field.coeffs
                                               - st_l.field.coeffs) ** 2))) / eps

        assert dist(1e-3) / dist(5e-4) == pytest.approx(2.0, abs=0.3)


# Exact answers of a whole nonlinear run.  On a line of modes {n f0} the
# transport term vanishes: u(n f0) is parallel to u(f0), which is normal to
# f0, so u(n f0) . (m f0) = 0, and the run is the linear solution.  The
# z-reflection and the point reflection theta(x, y, z) -> -theta(-x, -y, z)
# commute with a run.


def _line_state(shape, f0, fraction, amplitude):
    """Packed on ``fraction``'s core: a real field on +-n f0 for every kept n f0, n >= 1.

    The amplitudes are random complex numbers divided by n.
    """
    lat = Lattice(*shape)
    keep = lat.dealias_mask(fraction)
    rng = np.random.default_rng(7)
    c = np.zeros(lat.shape, complex)
    n = 1
    # below each axis's Nyquist index, and in the kept set
    while all(2 * n * j < m for j, m in zip(f0, shape)) and keep[tuple(n * j for j in f0)]:
        a = amplitude * complex(*rng.standard_normal(2)) / n
        c[tuple(n * j for j in f0)], c[tuple(-n * j for j in f0)] = a, np.conj(a)
        n += 1
    assert n > 2, "the line holds at least two modes"
    return SimState(0.0, SpectralField(lat, c)).packed_on(fraction)


def _steps(state, n, dt, fraction):
    """``state`` and its next ``n`` steps, step i ending at i dt."""
    states = [state]
    for i in range(1, n + 1):
        states.append(step_nonlinear(states[-1], i * dt - states[-1].t, fraction))
    return states


@pytest.mark.parametrize("amplitude", [0.1, 1.0])
@pytest.mark.parametrize("shape, f0, fraction", [
    ((8, 16, 8), (1, 1, 1), 2.0 / 3.0),
    ((16, 32, 16), (1, 2, 1), 2.0 / 3.0),
    ((16, 32, 16), (0, 1, 1), 0.8),          # a k = 0 line
    ((16, 32, 16), (1, 0, 2), 1.0),
    ((16, 32, 16), (2, 1, 0), 0.8),          # an alpha = 0 line
    ((32, 128, 32), (1, 3, 1), 2.0 / 3.0),
])
def test_a_run_on_a_line_of_modes_is_the_linear_solution(shape, f0, fraction, amplitude):
    # measured: the RHS at most 4.4e-17 of max|c|, the run 2.7e-15 relative
    start = _line_state(shape, f0, fraction, amplitude)
    scale = np.max(np.abs(start.packed))
    assert np.max(np.abs(nonlinear_rhs(start, fraction))) <= 1e-13 * scale
    for st in _steps(start, 40, 0.25, fraction)[1:]:
        want = step_linear(start, st.t).packed
        assert np.max(np.abs(st.packed - want)) <= 1e-13 * np.max(np.abs(want)), st.t


def _flip(c, axes):
    """c(f) -> c(f') with f' the index f with the signs on ``axes`` reversed."""
    return np.roll(np.flip(c, axes), 1, axes)


@pytest.mark.parametrize("fraction", [2.0 / 3.0, 1.0])
@pytest.mark.parametrize("shape", [(8, 16, 8), (16, 32, 16)])
@pytest.mark.parametrize("reflect, holds", [
    (lambda c: _flip(c, 2), True),                 # z: c(k, eta, alpha) -> c(k, eta, -alpha)
    (lambda c: -_flip(c, (0, 1)), True),           # c -> -c(-k, -eta, alpha)
    (lambda c: _flip(c, (0, 1)), False),           # the same without the sign
    (lambda c: _flip(c, 0), False),                # x alone
], ids=["z", "point", "point-without-sign", "x"])
def test_a_run_commutes_with_its_reflections(shape, fraction, reflect, holds):
    # measured: at most 5.0e-17 of max|c| where it holds, 4.7e-2 to 3.8e-1 where not
    cfg = SimConfig(nx=shape[0], ny=shape[1], nz=shape[2], epsilon=0.5, recipe="random",
                    seed=3, mode="nonlinear", dealias=fraction)
    start = init_field(cfg)
    mirrored = SimState(0.0, SpectralField(cfg.lattice, reflect(start.field.coeffs)))
    end = _steps(start, 20, 0.1, fraction)[-1].field.coeffs
    end_mirrored = _steps(mirrored.packed_on(fraction), 20, 0.1, fraction)[-1].field.coeffs
    defect = np.max(np.abs(reflect(end) - end_mirrored)) / np.max(np.abs(end))
    assert defect <= 1e-13 if holds else defect > 1e-3


def _translate(lat, c, shift):
    """c(f) -> c(f) exp(i (k a + eta b + alpha c0)), so theta(x) -> theta(x + shift)."""
    a, b, c0 = shift
    return c * np.exp(1j * (lat.kx * a + lat.eta * b + lat.alpha * c0))


@pytest.mark.parametrize("shape, fraction, holds", [
    ((8, 16, 8), 2.0 / 3.0, True),
    ((16, 32, 16), 2.0 / 3.0, True),
    ((16, 32, 16), 0.5, True),
    ((8, 16, 2), 2.0 / 3.0, True),           # a transforms' box one index wide on z
    ((8, 16, 2), 1.0, False),                # aliased: the product is not translation-covariant
])
def test_a_run_commutes_with_off_grid_translations(shape, fraction, holds):
    # exact without aliasing, at fractions up to 2/3.  Measured over 20 steps
    # of 0.1 at epsilon 0.5, on these lattices and 2 x 16 x 8, two seeds and
    # three shifts: at most 5.3e-16 relative at 0.5 and 2/3; at 0.8 and 1.0,
    # 2.6e-3 to 1.3e-1 for shifts of order 1 (4.1e-2 in the case here)
    shift = (0.3, 1.7, -2.1)
    cfg = SimConfig(nx=shape[0], ny=shape[1], nz=shape[2], epsilon=0.5, recipe="random",
                    seed=3, mode="nonlinear", dealias=fraction)
    lat = cfg.lattice
    start = init_field(cfg)
    moved = SimState(0.0, SpectralField(lat, _translate(lat, start.field.coeffs, shift)))
    end = _steps(start, 20, 0.1, fraction)[-1].field.coeffs
    end_moved = _steps(moved.packed_on(fraction), 20, 0.1, fraction)[-1].field.coeffs
    defect = np.max(np.abs(_translate(lat, end, shift) - end_moved)) / np.max(np.abs(end))
    assert defect <= 4e-15 if holds else defect > 1e-2


class TestLinearRun:
    @pytest.mark.parametrize("cfg", [
        SimConfig(nx=8, ny=16, nz=8, dt=0.1, t_end=100.0, output_every=1.0),
        SimConfig(),
    ], ids=["8x16x8", "default"])
    def test_matches_stepped_reference(self, cfg):
        times, err = _against_reference(cfg)
        assert len(times) == round(cfg.t_end / cfg.output_every) + 1
        assert err <= 1e-12

    def test_output_every_off_the_end_time(self):
        cfg = SimConfig(nx=8, ny=16, nz=8, dt=0.1, t_end=2.0, output_every=0.3)
        times, err = _against_reference(cfg)
        assert times == [i * 0.1 for i in range(0, 19, 3)]
        assert err <= 1e-12

    def test_each_state_is_evaluated_from_the_start(self, monkeypatch):
        calls = []

        def spy(state, dt):
            calls.append((state.t, dt))
            return step_linear(state, dt)

        monkeypatch.setattr(simulate, "step_linear", spy)
        cfg = SimConfig(nx=8, ny=16, nz=8, dt=0.1, t_end=2.0, output_every=0.3)
        final = run_simulation(cfg, on_row=lambda s: None)
        assert calls == [(0.0, i * 0.1) for i in (*range(3, 19, 3), 20)]
        assert final.t == 2.0
        calls.clear()
        run_simulation(cfg)    # without on_row too: the row times and the end
        assert calls == [(0.0, i * 0.1) for i in (*range(3, 19, 3), 20)]

    def test_never_checkpoints(self):
        kw = dict(nx=8, ny=16, nz=8, dt=0.1, t_end=1.0, checkpoint_every=0.5)
        # a linear run takes no checkpoint cadence: one would be a setting that does nothing
        with pytest.raises(ConfigError, match="checkpoint_every must be 0"):
            SimConfig(**kw, mode="linear")
        seen = []
        run_simulation(SimConfig(**kw, mode="nonlinear"), on_row=lambda s: None,
                       on_checkpoint=seen.append)
        assert [s.t for s in seen] == [0.5, 1.0]
        # run_states: a linear run yields its rows and end, none a checkpoint
        kw.update(t_end=2.0, output_every=0.3)
        linear = _yields(SimConfig(**{**kw, "checkpoint_every": 0.0}))
        assert not any(ckpt for _, _, ckpt in linear)
        assert all(row for _, row, _ in linear[:-1]) and linear[-1] == (2.0, False, False)
        nonlinear = _yields(SimConfig(**kw, mode="nonlinear"))
        assert [t for t, _, ckpt in nonlinear if ckpt] == [0.5, 1.0, 1.5, 2.0]


class TestRunAndDiagnostics:
    def test_row_cadence(self):
        cfg = SimConfig(nx=8, ny=16, nz=8, epsilon=1e-3, dt=0.1, t_end=2.0,
                        output_every=0.5, recipe="random", init_kmax=2)
        rows = []
        final = run_simulation(cfg, on_row=lambda s: rows.append(s.t))
        assert rows == pytest.approx([0.0, 0.5, 1.0, 1.5, 2.0])
        assert final.t == pytest.approx(2.0)
        # run_states: every step of a nonlinear run, only the rows and the end
        # of a linear one, each at t = i dt; the end, off the rows, comes last
        kw = dict(nx=8, ny=16, nz=8, dt=0.1, t_end=2.0, output_every=0.3,
                  checkpoint_every=0.5, init_kmax=2)
        assert _yields(SimConfig(**kw, mode="nonlinear")) == [
            (i * 0.1, i % 3 == 0, i > 0 and i % 5 == 0) for i in range(21)]
        assert _yields(SimConfig(**{**kw, "checkpoint_every": 0.0})) == [
            *((i * 0.1, True, False) for i in range(0, 19, 3)), (2.0, False, False)]

    def test_diagnostics_finite_nonnegative(self):
        cfg = SimConfig(nx=8, ny=16, nz=8, epsilon=1e-2, dt=0.1, t_end=1.0,
                        recipe="random", init_kmax=2, mode="nonlinear")
        params = cfg.weight_params
        rows = []
        run_simulation(cfg, on_row=lambda s: rows.append(compute_row(s, params)))
        for row in rows:
            for name, val in zip(row.header(), row.values()):
                assert math.isfinite(val), name
                if name != "t":
                    assert val >= 0.0, name
        assert rows[0].early == 1

    def test_zero_epsilon_all_zero(self):
        cfg = SimConfig(nx=8, ny=16, nz=8, epsilon=0.0, dt=0.1, t_end=1.0)
        params = cfg.weight_params
        rows = []
        run_simulation(cfg, on_row=lambda s: rows.append(compute_row(s, params)))
        for row in rows:
            assert row.u1_l2 == 0.0 and row.theta_l2 == 0.0
            for name, val in zip(row.header(), row.values()):
                if name.endswith("_l10"):
                    assert val == 0.0, name

    def test_orr_transient_envelope(self):
        # single-mode (1, eta, 0) linear run: measured U2 envelope matches the
        # symbol-times-damping prediction and peaks at the critical time
        eta_t, dt = 8.0, 0.25
        lat = Lattice(8, 128, 4)
        j = round(eta_t / lat.delta_eta)
        c = np.zeros(lat.shape, complex)
        c[1, j, 0] = 1.0
        st = SimState(0.0, symmetrized(SpectralField(lat, c)))
        c0 = abs(st.field.coeffs[1, j, 0])
        from strata.symbols import damping_integral

        best_t, best_v, v0 = 0.0, 0.0, None
        for _ in range(int(2.5 * eta_t / dt)):
            v2 = abs(float(np.asarray(velocity_symbol(st.t, 1.0, eta_t, 0.0)[1])))
            measured = v2 * abs(st.field.coeffs[1, j, 0])
            predicted = (v2 * c0
                         * math.exp(-damping_integral(0.0, st.t, 1, eta_t, 0)))
            assert measured == pytest.approx(predicted, rel=1e-10)
            if v0 is None:
                v0 = measured
            if measured > best_v:
                best_t, best_v = st.t, measured
            st = step_linear(st, dt)
        assert abs(best_t - eta_t) <= dt
        # symbol-level amplification is exact; the envelope ratio only differs
        # by the accumulated damping factor
        from strata.symbols import orr_amplification
        assert orr_amplification(1, eta_t) == (1 + eta_t**2) ** 2

    def test_zero_mode_envelope_slopes(self):
        # flat alpha = +-1 row: L2 of U2_zero decays roughly like 1/t early,
        # each mode exactly exponentially late
        lat = Lattice(2, 256, 4)
        c = np.zeros(lat.shape, complex)
        for j in range(1, 121):
            for iz in (1, lat.nz - 1):
                c[0, j, iz] = 1.0
                c[0, lat.ny - j, iz] = 1.0
        st = SimState(0.0, symmetrized(SpectralField(lat, c)))
        ts, l2s = [], []
        for _ in range(200):
            st = step_linear(st, 0.5)
            v2 = np.abs(velocity_symbol(st.t, lat.kx, lat.eta, lat.alpha)[1]
                        * st.field.coeffs)
            ts.append(st.t)
            l2s.append(math.sqrt(lat.delta_eta * float(np.sum(v2**2))))
        ts, l2s = np.array(ts), np.array(l2s)
        sel = (ts >= 2) & (ts <= 50)
        slope = np.polyfit(np.log(ts[sel]), np.log(l2s[sel]), 1)[0]
        assert -1.3 <= slope <= -0.6
        # late time: per-mode evolution is exactly the semigroup
        mode = abs(st.field.coeffs[0, 1, 1])
        sig = 1.0 / (lat.delta_eta**2 + 1.0) ** 2
        assert mode == pytest.approx(math.exp(-sig * st.t), rel=1e-12)

    def test_single_mode_u1_decay_slope(self):
        # frozen non-zero mode under linear evolution: streamwise velocity
        # norm decays with the symbol's t^-3 rate once transients pass
        lat = Lattice(8, 16, 8)
        c = np.zeros(lat.shape, complex)
        c[1, 1, 1] = 1.0
        st = SimState(0.0, symmetrized(SpectralField(lat, c)))
        ts, u1 = [], []
        dt = 2.5
        for _ in range(200):
            st = step_linear(st, dt)
            v1 = np.abs(velocity_symbol(st.t, lat.kx, lat.eta, lat.alpha)[0]
                        * st.field.coeffs)
            ts.append(st.t)
            u1.append(math.sqrt(lat.delta_eta * float(np.sum(v1**2))))
        ts, u1 = np.array(ts), np.array(u1)
        sel = (ts >= 50) & (ts <= 500)
        slope = np.polyfit(np.log(ts[sel]), np.log(u1[sel]), 1)[0]
        assert slope == pytest.approx(-3.0, abs=0.05)

    def test_cauchy_convergence_of_profile(self):
        # the sheared-frame scalar settles: distances between dyadic times shrink
        cfg = SimConfig(nx=8, ny=16, nz=8, epsilon=1e-3, dt=0.1, t_end=64.0,
                        output_every=8.0, recipe="random", init_kmax=2)
        params = cfg.weight_params
        snaps = []
        run_simulation(cfg, on_row=snaps.append)
        dists = [theta_distance_log(snaps[i].field, snaps[i + 1].field, 0.0, params)
                 for i in range(2, len(snaps) - 1)]
        assert all(b < a for a, b in zip(dists, dists[1:]))

    def test_zero_mode_weighted_envelope_minus_three(self):
        # amplitudes proportional to sigma^2 make the sup of |v2 theta| trace
        # the <t>^-3 rate while the grid resolves sigma ~ 1/t
        lat = Lattice(2, 256, 4)
        sig = np.where(np.broadcast_to(lat.alpha, lat.shape) != 0,
                       lat.alpha**2 / np.where((lat.eta**2 + lat.alpha**2) > 0,
                                               (lat.eta**2 + lat.alpha**2) ** 2, 1.0),
                       0.0)
        c = np.zeros(lat.shape, complex)
        live = np.zeros(lat.shape, bool)
        live[0, :, 1] = True
        live[0, :, lat.nz - 1] = True
        live[0, lat.ny // 2] = False      # off the y Nyquist line, which step_linear refuses
        c[live] = sig[live] ** 2
        st = SimState(0.0, symmetrized(SpectralField(lat, c)))
        ts, env = [], []
        for _ in range(400):
            st = step_linear(st, 0.5)
            v2 = np.abs(velocity_symbol(st.t, lat.kx, lat.eta, lat.alpha)[1]
                        * st.field.coeffs)
            ts.append(st.t)
            env.append(float(np.max(v2)))
        ts, env = np.array(ts), np.array(env)
        sel = (ts >= 5) & (ts <= 200)
        slope = np.polyfit(np.log(ts[sel]), np.log(env[sel]), 1)[0]
        assert slope == pytest.approx(-3.0, abs=0.2)
