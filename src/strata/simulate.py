"""Pseudo-spectral evolution in sheared coordinates.

The sheared frame keeps every mode's lattice position fixed while the shear
enters through time-dependent symbols (eta - k t), so the linear part is
solved exactly by an integrating factor: a linear run evaluates that exact
solution at each output time, and only the transport nonlinearity needs a
time stepper (Lawson RK4 on top of the exact factor).  Every damping factor
over [t0, t1] is exp(G(t0) - G(t1)) with the one per-mode antiderivative
G = ``symbols.damping_antiderivative``.

States are full-lattice Hermitian ``SpectralField``s everywhere outside the
nonlinear step.  Inside it the state is packed to the kept modes of the
rfft half-spectrum (the dealias mask without Nyquist indices); the symbols
and the antiderivative G are evaluated on those modes once per distinct
stage time, each RK stage's product is formed with six ``irfftn`` and one
``rfftn`` on a zero-padded half-spectrum, and the result is unpacked to the
full lattice on return.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.fft as _fft

from .config import SimConfig
from .lattice import Lattice, SpectralField
from .symbols import damping_antiderivative, transport_symbol

__all__ = [
    "SimState",
    "NumericalAbort",
    "init_field",
    "linear_decay_factors",
    "step_linear",
    "nonlinear_rhs",
    "step_nonlinear",
    "run_simulation",
]


@dataclass
class SimState:
    t: float
    field: SpectralField

    def copy(self) -> "SimState":
        return SimState(self.t, self.field.copy())


class NumericalAbort(RuntimeError):
    """NaN/Inf appeared in the state; carries the last finite state for dumping."""

    def __init__(self, message: str, state: SimState | None = None):
        super().__init__(message)
        self.state = state


def init_field(cfg: SimConfig) -> SimState:
    """Build the initial spectral field for a run.

    All recipes produce a zero-mean, Hermitian-symmetric field supported
    inside the dealias region (without the Nyquist indices that the
    nonlinear step drops) with amplitudes decaying like
    exp(-lambda_in |f|_1^s), rescaled so the sigma=0 Gevrey norm at radius
    lambda_in equals epsilon exactly.
    """
    lat = cfg.lattice
    coeffs = np.zeros(lat.shape, dtype=np.complex128)
    if cfg.epsilon == 0.0:
        return SimState(0.0, SpectralField(lat, coeffs))

    decay = np.exp(-cfg.lambda_in * lat.l1 ** cfg.s)
    support = _without_nyquist(lat.dealias_mask(cfg.dealias)) & (lat.l1 > 0)
    if cfg.init_kmax > 0:
        # index-space cap on every axis; without it the spectral cascade fills
        # the envelope at fresh modes and the weighted-norm ratios measure the
        # filling instead of the dynamics
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

    fieldv = SpectralField(lat, coeffs).symmetrized()
    fieldv.coeffs[0, 0, 0] = 0.0
    if not np.any(fieldv.coeffs):
        raise ValueError(f"init recipe {cfg.recipe!r} produced an empty field")

    # exact rescale of the radius-lambda_in Gevrey norm to epsilon
    weighted = np.exp(cfg.lambda_in * lat.l1 ** cfg.s) * np.abs(fieldv.coeffs)
    norm = math.sqrt(lat.delta_eta * float(np.sum(weighted**2)))
    fieldv.coeffs *= cfg.epsilon / norm
    return SimState(0.0, fieldv)


def linear_decay_factors(lat: Lattice, t0: float, t1: float) -> np.ndarray:
    """Per-mode exp(-integral of the damping coefficient over [t0, t1]).

    Formed as exp(G(t0) - G(t1)) from ``damping_antiderivative``; the mean
    mode and an empty interval give factor 1 exactly.
    """
    return np.exp(damping_antiderivative(t0, lat.kx, lat.eta, lat.alpha)
                  - damping_antiderivative(t1, lat.kx, lat.eta, lat.alpha))


def step_linear(state: SimState, dt: float) -> SimState:
    if dt <= 0:
        raise ValueError("dt must be positive")
    lat = state.field.lattice
    factors = linear_decay_factors(lat, state.t, state.t + dt)
    return SimState(state.t + dt, SpectralField(lat, state.field.coeffs * factors))


def _without_nyquist(mask: np.ndarray) -> np.ndarray:
    """Copy of a lattice mask with each axis's Nyquist index n/2 cleared."""
    out = mask.copy()
    out[out.shape[0] // 2, :, :] = False
    out[:, out.shape[1] // 2, :] = False
    out[:, :, out.shape[2] // 2] = False
    return out


class _Core:
    """The kept modes of one lattice and mask, packed from the rfft half-spectrum.

    The half-spectrum (nx, ny, nz//2+1) holds the modes with alpha >= 0; a
    real field's alpha < 0 modes are the conjugates of their partners.  The
    kept set is the mask without each axis's Nyquist index n/2, where the
    gradient symbol i*k has no Hermitian partner.  On the self-conjugate
    alpha = 0 plane both members of a pair are stored, so a reality defect
    there is carried through a step instead of being repaired.
    """

    def __init__(self, lat: Lattice, mask: np.ndarray | None):
        nx, ny, nz = lat.shape
        keep = _without_nyquist(np.ones(lat.shape, dtype=bool) if mask is None else mask)
        if not np.array_equal(keep, np.roll(np.flip(keep), 1, axis=(0, 1, 2))):
            raise ValueError("dealias mask must keep -f whenever it keeps f")
        self.shape = lat.shape
        self.size = lat.size
        self.half_shape = (nx, ny, nz // 2 + 1)
        ix, iy, iz = np.nonzero(keep[:, :, : nz // 2 + 1])
        self.half_idx = np.ravel_multi_index((ix, iy, iz), self.half_shape)
        self.full_idx = np.ravel_multi_index((ix, iy, iz), lat.shape)
        self.upper = iz > 0
        self.mirror_idx = np.ravel_multi_index(
            (-ix[self.upper] % nx, -iy[self.upper] % ny, -iz[self.upper] % nz), lat.shape)
        self.mean = np.flatnonzero(self.full_idx == 0)
        self.k = lat.kx.ravel()[ix]
        self.eta = lat.eta.ravel()[iy]
        self.alpha = lat.alpha.ravel()[iz]
        self.grad = (1j * self.k, 1j * self.eta, 1j * self.alpha)

    def pack(self, coeffs: np.ndarray) -> np.ndarray:
        return coeffs.ravel()[self.full_idx]

    def unpack(self, packed: np.ndarray) -> np.ndarray:
        out = np.zeros(self.size, dtype=np.complex128)
        out[self.full_idx] = packed
        out[self.mirror_idx] = np.conj(packed[self.upper])
        return out.reshape(self.shape)

    def workspace(self) -> np.ndarray:
        """Zero half-spectrum; rhs writes only the kept modes, so it stays zero-padded."""
        return np.zeros(self.half_shape, dtype=np.complex128)

    def rhs(self, c: np.ndarray, u, work: np.ndarray, workers: int) -> np.ndarray:
        """Packed -(u . grad theta) for packed c and symbols u; mean mode zeroed."""
        flat = work.reshape(-1)

        # norm="forward": theta(x) = sum_f c(f) exp(i f.x) without scaling
        def phys(vals):
            flat[self.half_idx] = vals
            return _fft.irfftn(work, s=self.shape, workers=workers, norm="forward")

        # overflow here surfaces as a NumericalAbort from the stepper's
        # finiteness check rather than as a warning storm
        with np.errstate(over="ignore", invalid="ignore"):
            u1, u2, u3 = u
            g1, g2, g3 = self.grad
            adv = (phys(u1 * c) * phys(g1 * c)
                   + phys(u2 * c) * phys(g2 * c)
                   + phys(u3 * c) * phys(g3 * c))
            out = -_fft.rfftn(adv, workers=workers, norm="forward").reshape(-1)[self.half_idx]
        out[self.mean] = 0.0
        return out


@lru_cache(maxsize=8)
def _cached_core(lat: Lattice, mask_bytes: bytes | None) -> _Core:
    mask = (None if mask_bytes is None
            else np.frombuffer(mask_bytes, dtype=bool).reshape(lat.shape))
    return _Core(lat, mask)


def _core(lat: Lattice, mask: np.ndarray | None) -> _Core:
    if mask is None:
        return _cached_core(lat, None)
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != lat.shape:
        raise ValueError(f"mask shape {mask.shape} does not match lattice {lat.shape}")
    return _cached_core(lat, mask.tobytes())


def nonlinear_rhs(state: SimState, mask: np.ndarray | None = None,
                  workers: int = 1) -> np.ndarray:
    """Spectral coefficients of -(u . grad theta), dealiased, mean mode zeroed.

    u is the moving-frame transport velocity and grad is the plain
    (ik, i eta, i alpha) gradient of the sheared coordinates; u is
    divergence-free, so the mean of u . grad theta vanishes identically and
    the zero mode is pinned to machine zero.  The result is zero outside the
    kept set: the mask (all modes if None) without the Nyquist indices.
    """
    core = _core(state.field.lattice, mask)
    u = transport_symbol(state.t, core.k, core.eta, core.alpha)
    c = core.pack(state.field.coeffs)
    return core.unpack(core.rhs(c, u, core.workspace(), workers))


def step_nonlinear(state: SimState, dt: float, mask: np.ndarray | None = None,
                   workers: int = 1) -> SimState:
    """One Lawson (integrating-factor) RK4 step of the full equation.

    The linear damping is applied through its exact per-mode propagator, so
    the scheme reduces to step_linear when the nonlinear term vanishes and
    retains classical 4th-order accuracy otherwise.  The step works on the
    packed kept modes (see nonlinear_rhs); content outside them is dropped.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    lat = state.field.lattice
    t, h = state.t, dt
    if not np.all(np.isfinite(state.field.coeffs.view(np.float64))):
        raise NumericalAbort(f"non-finite state at t={t:.6g}", state)
    core = _core(lat, mask)
    work = core.workspace()
    c0 = core.pack(state.field.coeffs)

    # symbols and damping antiderivatives once per distinct stage time
    t_mid, t_end = t + 0.5 * h, t + h
    u_a, u_b, u_c = (transport_symbol(s, core.k, core.eta, core.alpha) for s in (t, t_mid, t_end))
    g_a, g_b, g_c = (damping_antiderivative(s, core.k, core.eta, core.alpha)
                     for s in (t, t_mid, t_end))
    e_half = np.exp(g_a - g_b)
    e_back = np.exp(g_b - g_c)
    e_full = e_half * e_back

    k1 = core.rhs(c0, u_a, work, workers)
    theta_a = e_half * (c0 + 0.5 * h * k1)
    k2 = core.rhs(theta_a, u_b, work, workers)
    theta_b = e_half * c0 + 0.5 * h * k2
    k3 = core.rhs(theta_b, u_b, work, workers)
    theta_c = e_full * c0 + h * e_back * k3
    k4 = core.rhs(theta_c, u_c, work, workers)

    c1 = e_full * c0 + (h / 6.0) * (e_full * k1 + 2.0 * e_back * (k2 + k3) + k4)
    if not np.all(np.isfinite(c1)):
        raise NumericalAbort(f"non-finite state at t={t_end:.6g}", state)
    return SimState(t_end, SpectralField(lat, core.unpack(c1)))


def run_simulation(cfg: SimConfig, on_row=None, on_checkpoint=None):
    """Drive a full run; calls ``on_row(state)`` at t=0 and every output time.

    Returns the final state, at ``round(t_end/dt) * dt``.  A linear run takes
    no time steps: each state is the exact solution ``step_linear(start, t)``
    from the initial state, so ``dt`` only sets the time grid.
    ``on_checkpoint(state)`` fires every ``checkpoint_every`` time units in
    nonlinear mode when configured; linear runs never checkpoint.
    """
    state = init_field(cfg)
    n_steps = round(cfg.t_end / cfg.dt)
    out_stride = max(1, round(cfg.output_every / cfg.dt))

    if on_row is not None:
        on_row(state)
    if cfg.mode == "linear":
        start = state
        if on_row is not None:
            for i in range(out_stride, n_steps + 1, out_stride):
                state = step_linear(start, i * cfg.dt)
                on_row(state)
        # the last row is the end state unless output_every does not divide t_end
        if state.t == n_steps * cfg.dt:
            return state
        return step_linear(start, n_steps * cfg.dt)

    mask = cfg.lattice.dealias_mask(cfg.dealias)
    ckpt_stride = (max(1, round(cfg.checkpoint_every / cfg.dt))
                   if cfg.checkpoint_every > 0 else 0)
    for i in range(1, n_steps + 1):
        state = step_nonlinear(state, cfg.dt, mask, cfg.threads)
        # keep t exactly on the uniform grid to avoid drift in long runs
        state.t = i * cfg.dt
        if on_row is not None and i % out_stride == 0:
            on_row(state)
        if ckpt_stride and on_checkpoint is not None and i % ckpt_stride == 0:
            on_checkpoint(state)
    return state
