import math

import numpy as np
import pytest
import scipy.fft as _fft

import strata.diagnostics as diagnostics
import strata.simulate as simulate
from _hermitian import hermitian_defect
from strata.config import SimConfig
from strata.diagnostics import (
    DiagnosticRow,
    compute_row,
    log10p_from_log,
)
from strata.lattice import Lattice, SpectralField, iota
from strata.simulate import SimState, init_field, run_simulation, step_linear
from strata.symbols import velocity_symbol
from strata.weights import (
    LatticeWeights,
    WeightParams,
    _TableStack,
    b_multiplier,
    lambda_dot,
    lambda_t,
    lattice_weights,
    masked_log,
)

# Columns computed by the same arithmetic as the reference.  The velocity and
# weighted columns sum over the modes that carry mass only, in another order,
# so they agree to rounding only.  A packed state (a run's) is exactly real,
# checked against the pairing oracle, and takes reality_err = 0.0 without the
# reference's c2c transform; its theta_l2, summed over the stored members
# with multiplicity, is the field's l2 bit for bit.
EXACT = ("t", "early", "theta_l2", "mass_mode", "reality_err")


def _reference_log_weighted_l2(lattice, coeffs, logw, mask=None):
    """The masked per-call log-sum-exp that every weighted column once took."""
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


def _reference_row(state, p: WeightParams) -> DiagnosticRow:
    """One hand-written call per column: the oracle for compute_row's column table."""
    log_weighted_l2 = _reference_log_weighted_l2
    fieldv: SpectralField = state.field
    lat = fieldv.lattice
    t = state.t
    c = fieldv.coeffs
    ljt = 0.5 * math.log1p(t * t)
    lam = lambda_t(t, p)
    lw = lattice_weights(lat, p)
    deta = lat.delta_eta

    # velocity L2 norms via Plancherel on the original-frame symbols
    v1, v2, v3 = velocity_symbol(t, lat.kx, lat.eta, lat.alpha)
    zero = np.broadcast_to(lat.kx == 0, lat.shape)

    def _l2(mag2):
        return math.sqrt(deta * float(np.sum(mag2)))

    abs2 = np.abs(c) ** 2
    u1_l2 = _l2(v1**2 * abs2)
    u3_l2 = _l2(v3**2 * abs2)
    u2_zero = _l2(np.where(zero, v2**2 * abs2, 0.0))
    u2_nonzero = _l2(np.where(zero, 0.0, v2**2 * abs2))

    # weighted ladder, all in log space
    gev_exp = lam * lat.l1 ** p.s
    log_inv_w = -lw.log_w(t)    # log J, J = 1/w
    log_b = np.log(b_multiplier(lat.eta, lat.alpha))
    zero_mask = zero
    znz_mask = zero & np.broadcast_to(lat.alpha != 0, lat.shape)

    def _ladder(sigma, tweight, with_j=False, use_b=False, mask=None):
        logw = gev_exp + sigma * lat.log_brackets
        if with_j:
            logw = logw + log_inv_w
        if use_b:
            logw = logw + log_b
        ln = log_weighted_l2(lat, c, logw, mask)
        if ln != -math.inf:
            ln = ln + tweight * ljt
        return log10p_from_log(ln)

    s1, s2, s3, s4, s5, s6, s7 = p.sigmas
    gev_s1 = _ladder(s1, -1.5, with_j=True)
    gevb0_s1m2 = _ladder(s1 - 2.0, 0.0, with_j=True, use_b=True, mask=zero_mask)
    gev0_s2 = _ladder(s2, 1.5, mask=znz_mask)
    gev_s3 = _ladder(s3, -0.5)
    gev0_s4 = _ladder(s4, 2.5, mask=znz_mask)
    gev_s5 = _ladder(s5, 0.0)
    gev0_s6 = _ladder(s6, 3.0, mask=znz_mask)

    # sup over eta of the z- and x-averaged mode at sigma7
    dz_col = np.abs(c[0, :, 0])
    eta_1d = lat.eta.ravel()
    sup_arg = (masked_log(dz_col) + lam * np.abs(eta_1d) ** p.s
               + 0.5 * s7 * np.log1p(eta_1d**2))
    sup0_s7 = log10p_from_log(float(np.max(sup_arg)))

    # CK terms at sigma1 (with J), bracketed time factor <t>^-3
    log_a1 = gev_exp + s1 * lat.log_brackets + log_inv_w
    half_log_l1s = 0.5 * p.s * masked_log(lat.l1)
    ln_ck_lam = log_weighted_l2(lat, c, log_a1 + half_log_l1s)
    if ln_ck_lam != -math.inf:
        # -lambda_dot * <t>^-3 * (weighted norm)^2, assembled in logs
        ln_ck_lam = math.log(-lambda_dot(t, p)) - 3.0 * ljt + 2.0 * ln_ck_lam
    ck_lambda = log10p_from_log(ln_ck_lam)

    ratio = lw.dlogw_dt(t)
    half_log_ratio = 0.5 * masked_log(ratio)
    ln_ck_w = log_weighted_l2(lat, c, log_a1 + half_log_ratio)
    if ln_ck_w != -math.inf:
        ln_ck_w = 2.0 * ln_ck_w - 3.0 * ljt
    ck_w = log10p_from_log(ln_ck_w)

    return DiagnosticRow(
        t=t,
        early=int(t <= 10.0),
        u1_l2=u1_l2,
        u2_zero_l2=u2_zero,
        u2_nonzero_l2=u2_nonzero,
        u3_l2=u3_l2,
        theta_l2=fieldv.l2(),
        mass_mode=abs(complex(c[0, 0, 0])),
        reality_err=fieldv.reality_defect(),
        gev_s1_l10=gev_s1,
        gevb0_s1m2_l10=gevb0_s1m2,
        gev0_s2_l10=gev0_s2,
        gev_s3_l10=gev_s3,
        gev0_s4_l10=gev0_s4,
        gev_s5_l10=gev_s5,
        gev0_s6_l10=gev0_s6,
        sup0_s7_l10=sup0_s7,
        ck_lambda_l10=ck_lambda,
        ck_w_l10=ck_w,
    )


def _assert_rows_agree(state, params):
    got = compute_row(state, params)
    ref = _reference_row(state, params)
    for name, g, r in zip(DiagnosticRow.header(), got.values(), ref.values()):
        if name == "reality_err" and state.core is not None:
            assert g == 0.0 and hermitian_defect(state.field) == 0.0, (state.t, g)
        elif name in EXACT:
            assert g == r, (state.t, name)
        else:
            assert abs(g - r) <= 1e-12 * abs(r), (state.t, name, g, r)


def _run_states(cfg):
    states = []
    run_simulation(cfg, on_row=states.append)
    return states


def test_default_lattice_linear_states_match_reference():
    cfg = SimConfig()
    start = init_field(cfg)
    for t in (0.0, 1.0, 5.0, 20.0, 100.0):
        _assert_rows_agree(step_linear(start, t) if t else start, cfg.weight_params)


@pytest.mark.parametrize("cfg", [
    # criterion-7 desk configuration, cut to 20 steps
    SimConfig(mode="nonlinear", epsilon=1e-3, dt=0.1, t_end=2.0, output_every=1.0, seed=0),
    # the default linear run, every 20th row: each packed mode but the mean counts twice
    SimConfig(output_every=20.0),
    # its rows to t = 22.5: inside resonant intervals, then past the last
    # critical time (test_oracle_rows_cover_the_resonant_and_the_late_regime)
    SimConfig(t_end=22.5, output_every=2.5),
    # one +-f pair: the k = 0 columns see no mass
    SimConfig(nx=8, ny=16, nz=8, recipe="single", dt=0.1, t_end=20.0, output_every=5.0),
    SimConfig(nx=8, ny=16, nz=8, epsilon=0.0, dt=0.1, t_end=1.0),
], ids=["criterion7-20-steps", "default-linear", "default-linear-resonant", "single-8x16x8",
        "zero-epsilon"])
def test_run_states_match_reference(cfg):
    states = _run_states(cfg)
    # every run hands on_row packed states with the core of its dealias mask
    core = simulate._core(cfg.lattice, cfg.lattice.dealias_mask(cfg.dealias))
    assert all(s.core is core and s.packed is not None for s in states)
    for state in states:
        _assert_rows_agree(state, cfg.weight_params)


def _unpacked(state):
    """The same field as a packed state, as a state without a core: editable."""
    return SimState(state.t, SpectralField(state.core.lattice, state.core.unpack(state.packed)))


@pytest.mark.parametrize("cfg", [SimConfig(), SimConfig(nx=8, ny=16, nz=8, init_kmax=2)],
                         ids=["default", "8x16x8"])
@pytest.mark.parametrize("where, size", [
    ((1, 2, 0), 1e-6j), ((1, 2, 0), 0.3), ((0, 0, 0), 2e-3j), ((-3, 5, 0), 50.0 + 5.0j),
], ids=["small-imag", "real", "mean-mode", "dominant"])
def test_plane_reality_err_matches_the_c2c_defect(cfg, where, size):
    # a defect on the alpha = 0 plane, partner untouched, on or off the kept
    # modes: a field without a core takes the c2c transform
    state = _unpacked(step_linear(init_field(cfg), 5.0))
    c = state.field.coeffs
    c[where] += size * np.max(np.abs(c))
    got = compute_row(state, cfg.weight_params).reality_err
    ref = state.field.reality_defect()
    assert ref > 1e-9
    assert got == ref


@pytest.mark.parametrize("cfg", [
    SimConfig(), SimConfig(nx=8, ny=16, nz=8, dealias=1.0),
    SimConfig(nx=8, ny=16, nz=8, epsilon=0.0),
], ids=["default", "dealias-one", "zero-field"])
def test_plane_reality_err_is_zero_on_exactly_real_states(cfg):
    start = init_field(cfg)
    for t in (0.0, 3.0, 50.0):
        state = step_linear(start, t) if t else start
        assert hermitian_defect(state.field) == 0.0
        assert compute_row(state, cfg.weight_params).reality_err == 0.0


def _nonlinear_states(cfg, steps, mask=None):
    """init_field's state and the next ``steps`` nonlinear steps, all packed."""
    mask = cfg.lattice.dealias_mask(cfg.dealias) if mask is None else mask
    states = [init_field(cfg)]
    for _ in range(steps):
        states.append(simulate.step_nonlinear(states[-1], cfg.dt, mask))
    return states


def _holey_mask(lat):
    # symmetric, but without the x = +-1 planes: holes inside the cut box
    mask = lat.dealias_mask()
    mask[[1, -1]] = False
    return mask


_NONLINEAR = [
    (SimConfig(mode="nonlinear", epsilon=1e-3, seed=5), 4, None),
    (SimConfig(nx=8, ny=16, nz=8, mode="nonlinear", epsilon=0.5, dealias=1.0), 6, None),
    (SimConfig(nx=8, ny=16, nz=8, mode="nonlinear", epsilon=0.5, init_kmax=2), 6, None),
    (SimConfig(nx=8, ny=16, nz=8, mode="nonlinear", epsilon=0.5), 6, _holey_mask),
    (SimConfig(nx=16, ny=32, nz=12, mode="nonlinear", epsilon=0.5, init_kmax=3), 4, None),
]
_NONLINEAR_IDS = ["default", "dealias-one", "8x16x8", "holey-mask", "16x32x12"]


@pytest.mark.parametrize("cfg, steps, mask", _NONLINEAR, ids=_NONLINEAR_IDS)
def test_nonlinear_states_are_real_by_construction(cfg, steps, mask):
    states = _nonlinear_states(cfg, steps, None if mask is None else mask(cfg.lattice))
    assert all(s.packed is not None for s in states)
    for state in states:
        assert hermitian_defect(state.field) == 0.0, state.t


@pytest.mark.parametrize("cfg, steps, mask", _NONLINEAR, ids=_NONLINEAR_IDS)
def test_packed_theta_l2_is_the_field_l2(cfg, steps, mask):
    # the row sums the stored members in l2's order: the tie check_nonlinear needs
    for state in _nonlinear_states(cfg, steps, None if mask is None else mask(cfg.lattice)):
        assert compute_row(state, cfg.weight_params).theta_l2 == state.field.l2(), state.t


@pytest.mark.parametrize("cfg", [
    SimConfig(output_every=25.0), SimConfig(nx=8, ny=16, nz=8, recipe="single", t_end=20.0,
                                            output_every=5.0),
    SimConfig(mode="nonlinear", epsilon=1e-3, t_end=0.3, output_every=0.1, seed=5),
    SimConfig(nx=8, ny=16, nz=8, mode="nonlinear", epsilon=0.5, t_end=1.0, output_every=0.5),
], ids=["default", "single-8x16x8", "nonlinear-default", "nonlinear-8x16x8"])
def test_packed_rows_match_the_field_rows(cfg):
    # the packed row, the same state without a core and the reference agree:
    # bitwise where the arithmetic is shared, else to the file's tolerance.
    # sup0_s7 is a max over single modes, so no multiplicity may enter it
    for state in _run_states(cfg):
        got = compute_row(state, cfg.weight_params)
        plain = _unpacked(state)
        want, ref = compute_row(plain, cfg.weight_params), _reference_row(plain, cfg.weight_params)
        assert got.reality_err == 0.0 and want.reality_err == ref.reality_err
        assert got.sup0_s7_l10 == want.sup0_s7_l10, state.t
        for name, g, w, r in zip(DiagnosticRow.header(), got.values(), want.values(),
                                 ref.values()):
            if name == "reality_err":
                continue
            if name in EXACT:
                assert g == w == r, (state.t, name)
            else:
                assert abs(g - w) <= 1e-12 * abs(w), (state.t, name, g, w)
                assert abs(g - r) <= 1e-12 * abs(r), (state.t, name, g, r)


def _assert_rows_make_no_transform_and_no_unpack(monkeypatch, cfg):
    states = _run_states(cfg)
    want = [compute_row(s, cfg.weight_params) for s in states]

    def forbidden(*args, **kwargs):
        raise AssertionError("a run's row transformed or unpacked")

    for module in (np.fft, _fft):
        for name in module.__all__:
            if callable(getattr(module, name)):
                monkeypatch.setattr(module, name, forbidden)
    monkeypatch.setattr(simulate._Core, "unpack", forbidden)
    got = [compute_row(SimState(s.t, core=s.core, packed=s.packed), cfg.weight_params)
           for s in states]
    assert [g.values() for g in got] == [w.values() for w in want]


def test_linear_rows_make_no_transform_and_no_unpack(monkeypatch):
    _assert_rows_make_no_transform_and_no_unpack(monkeypatch, SimConfig(output_every=50.0))


def test_nonlinear_rows_make_no_transform_and_no_unpack(monkeypatch):
    cfg = SimConfig(mode="nonlinear", epsilon=1e-3, t_end=0.2, output_every=0.1)
    _assert_rows_make_no_transform_and_no_unpack(monkeypatch, cfg)


@pytest.mark.parametrize("where", [(1, 2), (0, 3), (-3, 5)], ids=["pair", "zero-k", "negative-k"])
def test_perturbed_packed_plane_stays_real(where):
    # an edit to a stored alpha = 0 member is an edit to its partner too
    cfg = SimConfig(output_every=50.0)
    state = _run_states(cfg)[1]
    core, lat = state.core, cfg.lattice
    flat = np.ravel_multi_index((*where, 0), lat.shape, mode="wrap")
    pos = np.flatnonzero((core.full_idx == flat) | (core.neg_idx == flat))
    packed = state.packed.copy()
    packed[pos] += 1e-3j * np.max(np.abs(packed))
    edited = SimState(state.t, core=core, packed=packed)
    assert hermitian_defect(edited.field) == 0.0
    assert compute_row(edited, cfg.weight_params).reality_err == 0.0
    assert edited.field.reality_defect() < 1e-15


def _whole_lattice(lat, rng):
    return rng.normal(size=lat.shape) + 1j * rng.normal(size=lat.shape)


def _zero_plane(lat, rng):
    c = np.zeros(lat.shape, complex)
    c[0] = _whole_lattice(lat, rng)[0]
    return c


def _one_mode(lat, rng):
    c = np.zeros(lat.shape, complex)
    c[1, 2, -1] = rng.normal() + 1j * rng.normal()
    return c


@pytest.mark.parametrize("shape", [(4, 4, 4), (6, 10, 8)])
@pytest.mark.parametrize("make", [_whole_lattice, _zero_plane, _one_mode],
                         ids=["whole-lattice", "k0-only", "one-mode"])
def test_supports_match_reference(shape, make):
    # non-Hermitian fields: the mean mode, the Nyquist indices and unpaired
    # modes carry mass, and the k = 0 or k != 0 columns can have none
    lat = Lattice(*shape)
    c = 1e-3 * make(lat, np.random.default_rng(sum(shape)))
    for t in (0.0, 1.3, 3.7, 20.0):
        _assert_rows_agree(SimState(t, SpectralField(lat, c)), WeightParams())


def test_nan_mode_matches_reference():
    # a NaN coefficient reaches the velocity norms and drops out of the weighted columns
    lat = Lattice(4, 4, 4)
    c = np.zeros(lat.shape, complex)
    c[1, 1, 1], c[2, 0, 1] = 1e-3, np.nan
    state = SimState(1.0, SpectralField(lat, c))
    got, ref = compute_row(state, WeightParams()), _reference_row(state, WeightParams())
    np.testing.assert_allclose(got.values(), ref.values(), rtol=1e-12, equal_nan=True)


def test_oracle_rows_cover_the_resonant_and_the_late_regime():
    # the default-linear-resonant rows of test_run_states_match_reference:
    # some rows have modes on w_R with d/dt log w > 0, and the last row is
    # past every critical time, where d/dt log w = 0 and ck_w is exactly 0.0
    cfg = SimConfig(t_end=22.5, output_every=2.5)
    states = _run_states(cfg)
    core, lat, p = states[0].core, cfg.lattice, cfg.weight_params
    tables = lattice_weights(lat, p).tables
    modes = tables.modes(core.modes.k, lat.iota_vals.ravel()[core.full_idx])
    rising = [np.any(use & (d > 0)) for _, d, use in
              (tables.mode_weights(s.t, *modes) for s in states)]
    assert sum(rising) >= 5
    assert not np.any(tables.mode_weights(states[-1].t, *modes)[1])
    assert compute_row(states[-1], p).ck_w_l10 == 0.0


def test_coreless_rows_follow_a_changing_occupied_set():
    # a field without a core, edited between rows: a new occupied set builds
    # its plan, the same set reuses it, and every row matches the reference
    lat, p = Lattice(6, 10, 8), WeightParams()
    c = 1e-3 * _whole_lattice(lat, np.random.default_rng(5))
    cut = np.where(np.abs(lat.kx) + np.abs(lat.alpha) > 3, 0.0, c)
    diagnostics._support.cache_clear()
    for coeffs, builds in ((c, 1), (cut, 2), (cut, 2), (c, 3)):
        for t in (7.0, 30.0):
            _assert_rows_agree(SimState(t, SpectralField(lat, coeffs.copy())), p)
        assert diagnostics._support.cache_info().misses == builds


def test_weighted_columns_survive_squares_below_the_normal_range():
    # |c| ~ 1e-160 squares to a subnormal with a few digits left, yet the
    # sigma_1 weights keep such modes in the ladder: their log comes from |c|
    lat, p = Lattice(6, 10, 8), WeightParams()
    c = 1e-160 * _whole_lattice(lat, np.random.default_rng(2))
    got, ref = (f(SimState(2.0, SpectralField(lat, c)), p) for f in (compute_row, _reference_row))
    assert got.gev_s1_l10 > 0.0
    for name, g, r in zip(DiagnosticRow.header(), got.values(), ref.values()):
        if name.endswith("_l10"):
            assert abs(g - r) <= 1e-12 * abs(r), (name, g, r)


def test_rows_make_one_stacked_weight_evaluation(monkeypatch):
    def refuse(self, *args):
        raise AssertionError("a run built a full-lattice LatticeWeights")

    monkeypatch.setattr(LatticeWeights, "__init__", refuse)
    pieces, mode_weights, calls, rows = _TableStack.pieces, _TableStack.mode_weights, [], []

    def counted(self, row, t):
        calls.append((t, np.size(row)))
        return pieces(self, row, t)

    def asked(self, t, row, key):
        calls.append(np.size(row))
        return mode_weights(self, t, row, key)

    monkeypatch.setattr(_TableStack, "pieces", counted)
    monkeypatch.setattr(_TableStack, "mode_weights", asked)
    cfg = SimConfig(t_end=20.0)
    lat, p = cfg.lattice, cfg.weight_params
    sym = simulate._core(lat, lat.dealias_mask(cfg.dealias)).modes
    # the plan's own stack: the 38 distinct |iota| > 1 of the 18 743 packed
    # modes (60 on the lattice) and the row of |iota| <= 1
    iv = iota(sym.k, sym.eta, sym.alpha)
    tables = _TableStack(iv, p.c_star)
    assert tables.iota.size == 39
    # the distinct (row, key) pairs of the packed modes' weights
    groups = np.unique(np.stack(tables.modes(sym.k, iv)), axis=1).shape[1]
    assert groups < sym.k.size

    def on_row(state):
        calls.clear()
        compute_row(state, p)
        # one evaluation of the stack's rows at the row's time, asked for the groups
        rows.append(calls == [groups, (state.t, tables.iota.size)])

    diagnostics._support.cache_clear()
    lattice_weights.cache_clear()
    run_simulation(cfg, on_row=on_row)
    assert len(rows) == 21 and all(rows)
    # the row plan is built once, at the first row
    info = diagnostics._support.cache_info()
    assert (info.misses, info.hits) == (1, 20)
    # neither a linear nor a nonlinear run asks for the lattice's weights
    run_simulation(SimConfig(mode="nonlinear", nx=8, ny=16, nz=8, t_end=0.4, output_every=0.2))
    assert lattice_weights.cache_info().misses == 0


def test_packed_plan_holds_the_cores_symbols():
    cfg = SimConfig(nx=8, ny=16, nz=8)
    start = init_field(cfg)
    diagnostics._support.cache_clear()
    compute_row(start, cfg.weight_params)
    plan = diagnostics._support(cfg.lattice, cfg.weight_params, start.core)
    assert diagnostics._support.cache_info().misses == 1
    assert plan.modes is start.core.modes


@pytest.mark.parametrize("shape", [(8, 16, 8), (6, 10, 8)])
def test_coreless_plan_is_the_lattice_gather(shape):
    # a core-less plan's symbols, |iota| rows and weights equal the gathers
    # from the lattice's arrays and its LatticeWeights, bit for bit
    lat, p = Lattice(*shape), WeightParams()
    c = np.where(np.abs(lat.kx) + np.abs(lat.alpha) > 3, 0.0,
                 _whole_lattice(lat, np.random.default_rng(3)))
    occupied = c.ravel() != 0
    plan = diagnostics._RowPlan(lat, p, np.packbits(occupied).tobytes())
    idx = np.flatnonzero(occupied)
    ix, iy, iz = np.unravel_index(idx, lat.shape)
    k, eta, alpha = lat.kx.ravel()[ix], lat.eta.ravel()[iy], lat.alpha.ravel()[iz]
    for got, want in ((plan.modes.k, k), (plan.modes.eta, eta), (plan.modes.alpha, alpha),
                      (plan.modes.kk, k * k), (plan.modes.aa, alpha * alpha),
                      (plan.modes.ka, k * k + alpha * alpha)):
        assert got.tobytes() == want.tobytes()
    lw = LatticeWeights(lat, p)
    assert plan.tables.vals.size < lw.tables.vals.size
    assert np.isin(plan.tables.vals, lw.tables.vals).all()
    for t in (0.5, 7.0, 30.0, 80.0):
        log_w, dlog_w, _ = plan.tables.mode_weights(t, *plan.groups)
        assert log_w[plan.group].tobytes() == lw.log_w(t).ravel()[idx].tobytes()
        assert dlog_w[plan.group].tobytes() == lw.dlogw_dt(t).ravel()[idx].tobytes()


def test_single_pair_columns_in_closed_form():
    # mode f = (1, delta_eta, 1) and its mirror: |iota| = 1, so w = 1 and d_t w = 0;
    # each weighted norm is sqrt(2 delta_eta) |c| e^(lambda|f|_1^s) <f>^sigma <t>^p
    cfg = SimConfig(nx=8, ny=16, nz=8, recipe="single", dt=0.1, t_end=20.0,
                    output_every=5.0)
    p = cfg.weight_params
    s1, _, s3, _, s5, _, _ = p.sigmas
    deta = cfg.lattice.delta_eta
    l1 = 2.0 + deta
    bracket = math.sqrt(3.0 + deta * deta)
    for state in _run_states(cfg):
        c = state.field.coeffs
        assert np.count_nonzero(c) == 2 and abs(c[-1, -1, -1]) == abs(c[1, 1, 1])
        t = state.t
        row = compute_row(state, p)

        def norm(sigma, t_exp):
            return (math.sqrt(2.0 * deta) * abs(c[1, 1, 1]) * math.exp(lambda_t(t, p) * l1**p.s)
                    * bracket**sigma * (1.0 + t * t) ** (0.5 * t_exp))

        assert row.gev_s1_l10 == pytest.approx(math.log10(1.0 + norm(s1, -1.5)), rel=1e-12)
        assert row.gev_s3_l10 == pytest.approx(math.log10(1.0 + norm(s3, -0.5)), rel=1e-12)
        assert row.gev_s5_l10 == pytest.approx(math.log10(1.0 + norm(s5, 0.0)), rel=1e-12)
        ck_lambda = -lambda_dot(t, p) * l1**p.s * norm(s1, -1.5) ** 2
        assert row.ck_lambda_l10 == pytest.approx(math.log10(1.0 + ck_lambda), rel=1e-12)
        for name in ("gevb0_s1m2_l10", "gev0_s2_l10", "gev0_s4_l10", "gev0_s6_l10",
                     "sup0_s7_l10", "ck_w_l10"):
            assert getattr(row, name) == 0.0, (t, name)


@pytest.mark.parametrize("t", [0.0, 3.0, 50.0])
def test_alpha_zero_pair_columns_in_closed_form(t):
    # the k = 0, alpha = 0 pair (0, +-delta_eta, 0): |iota| < 1, so J = 1; it
    # belongs to the B-weighted zero-mode column and the sup column only
    lat, p, amp = Lattice(8, 16, 8), WeightParams(), 1e-3
    c = np.zeros(lat.shape, complex)
    c[0, 1, 0] = c[0, -1, 0] = amp
    row = compute_row(SimState(t, SpectralField(lat, c)), p)
    deta, s1, s7 = lat.delta_eta, p.sigma(1), p.sigma(7)
    gev = math.exp(lambda_t(t, p) * deta**p.s)
    b_norm = (math.sqrt(2.0 * deta) * amp * gev * (1.0 + deta * deta) ** (0.5 * s1 - 1.0)
              * math.sqrt(1.0 + deta))
    assert row.gevb0_s1m2_l10 == pytest.approx(math.log10(1.0 + b_norm), rel=1e-12)
    sup = amp * gev * (1.0 + deta * deta) ** (0.5 * s7)
    assert row.sup0_s7_l10 == pytest.approx(math.log10(1.0 + sup), rel=1e-12)
    for name in ("gev0_s2_l10", "gev0_s4_l10", "gev0_s6_l10", "ck_w_l10"):
        assert getattr(row, name) == 0.0, name
