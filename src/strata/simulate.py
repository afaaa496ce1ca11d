"""Pseudo-spectral evolution in sheared coordinates.

The sheared frame keeps every mode's lattice position fixed while the shear
enters through time-dependent symbols (eta - k t), so the linear part is
solved exactly by an integrating factor: a linear run evaluates that exact
solution at each output time, and only the transport nonlinearity needs a
time stepper (Lawson RK4 on top of the exact factor).  Every damping factor
over [t0, t1] is exp(G(t0) - G(t1)) with the one per-mode antiderivative
G = ``symbols.damping_antiderivative``.

A state is a full-lattice ``SpectralField`` of a real scalar.  The initial
field and the nonlinear step work on the kept modes of the rfft
half-spectrum (the dealias mask without Nyquist indices): one member of
each +-f pair is formed, and ``_Core.unpack`` writes the other as its
conjugate, so no step repairs Hermitian symmetry.  On the self-conjugate
alpha = 0 plane both members are stored, and a departure from the pairing
there is carried, not repaired.

Every state a run makes carries that kept-mode structure (``SimState.core``,
the cached core of the dealias mask).  A linear run's states hold only their
packed coefficients from the start, a nonlinear run's from its first step
on: ``step_linear`` maps packed to packed with G on the packed modes (G at
the start time cached on the core), ``step_nonlinear`` advances the packed
values, and ``diagnostics.compute_row`` reduces over them.  A state's
``field`` is built from its packed values only when something reads it.
Loaded checkpoints and hand-built states carry no core and take the
full-lattice paths.

In the nonlinear step the transport symbols and the antiderivative G are
evaluated on the kept modes once per distinct stage time, from parts the
core forms once.  Each RK stage's product is formed with six inverse and
one forward ``numpy.fft`` transform, pruned to the 1-D lines that carry
content: the kept modes fill a box of signed indices |i| < c per axis, and
the zero padding around it is neither read nor written on x and y (the
zero-padded pseudo-spectral product of Canuto, Hussaini, Quarteroni & Zang,
*Spectral Methods*, 2006, skipping the lines Orszag's 2/3 rule leaves empty).
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .config import ConfigError, SimConfig
from .lattice import Lattice, SpectralField
from .symbols import _Antiderivative, _Transport, damping_antiderivative, transport_symbol

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


class SimState:
    """A field at time t, with the ``_Core`` of the kept modes it is real on, if any.

    With a core the field is zero off the core's packed modes, and each
    alpha < 0 mode is the exact conjugate of its packed partner.  Such a
    state may hold only its packed coefficients: ``field`` is then built
    from them when first read, and from that read on the field is the
    state, so ``packed`` sees any edit made to it.
    """

    def __init__(self, t: float, field: SpectralField | None = None,
                 core: _Core | None = None, packed: np.ndarray | None = None):
        if (field is None) == (packed is None) or (packed is not None and core is None):
            raise ValueError("a state holds a field, or packed coefficients with their core")
        self.t = t
        self.core = core
        self._field = field
        self._packed = packed

    @property
    def field(self) -> SpectralField:
        if self._field is None:
            self._field = SpectralField(self.core.lattice, self.core.unpack(self._packed))
            self._packed = None
        return self._field

    @property
    def holds_packed(self) -> bool:
        """True while the state is its packed coefficients: its field was never read."""
        return self._field is None

    @property
    def packed(self) -> np.ndarray:
        """The core's packed coefficients, read from the field once it has been built."""
        return self.core.pack(self._field.coeffs) if self._packed is None else self._packed

    def copy(self) -> "SimState":
        if self._field is None:
            return SimState(self.t, core=self.core, packed=self._packed.copy())
        return SimState(self.t, self._field.copy(), self.core)


class NumericalAbort(RuntimeError):
    """NaN/Inf appeared in the state; carries the last finite state for dumping."""

    def __init__(self, message: str, state: SimState | None = None):
        super().__init__(message)
        self.state = state


def init_field(cfg: SimConfig) -> SimState:
    """Build the initial spectral field for a run, with the cached core of its dealias mask.

    Every recipe sets full-lattice coefficients c with amplitudes decaying
    like exp(-lambda_in |f|_1^s).  The field takes 0.5 * (c(f) + conj c(-f))
    on one member f of each +-f pair of the nonlinear step's kept modes
    (the dealias mask without the Nyquist indices), zeroes the mean mode,
    and writes the other member as its conjugate; it is then rescaled so
    the sigma=0 Gevrey norm at radius lambda_in equals epsilon exactly.  A
    recipe that puts nothing on the kept modes is a ``ConfigError``.
    """
    lat = cfg.lattice
    core = _core(lat, lat.dealias_mask(cfg.dealias))
    coeffs = np.zeros(lat.shape, dtype=np.complex128)
    if cfg.epsilon == 0.0:
        return SimState(0.0, SpectralField(lat, coeffs), core)
    decay = np.exp(-cfg.lambda_in * lat.l1 ** cfg.s)
    support = np.ones(lat.shape, dtype=bool)
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

    kept = 0.5 * (core.pack(coeffs) + np.conj(coeffs.ravel()[core.neg_idx]))
    kept[core.mean] = 0.0
    if not np.any(kept):
        raise ConfigError(f"init recipe {cfg.recipe!r} puts nothing on the kept modes")
    fieldv = SpectralField(lat, core.unpack(kept))

    # exact rescale of the radius-lambda_in Gevrey norm to epsilon, summed
    # over the whole lattice
    weighted = np.exp(cfg.lambda_in * lat.l1 ** cfg.s) * np.abs(fieldv.coeffs)
    fieldv.coeffs *= cfg.epsilon / math.sqrt(lat.delta_eta * float(np.sum(weighted**2)))
    return SimState(0.0, fieldv, core)


def linear_decay_factors(lat: Lattice, t0: float, t1: float) -> np.ndarray:
    """Per-mode exp(-integral of the damping coefficient over [t0, t1]).

    Formed as exp(G(t0) - G(t1)) from ``damping_antiderivative``; the mean
    mode and an empty interval give factor 1 exactly.
    """
    return np.exp(damping_antiderivative(t0, lat.kx, lat.eta, lat.alpha)
                  - damping_antiderivative(t1, lat.kx, lat.eta, lat.alpha))


def step_linear(state: SimState, dt: float) -> SimState:
    """The exact linear solution dt after ``state``, keeping its core.

    With a core, G is evaluated on the packed modes only and the result
    holds packed coefficients; G is even under f -> -f, so the unpacked
    partners equal the full-lattice product.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    core, t1 = state.core, state.t + dt
    if core is None:
        lat = state.field.lattice
        coeffs = state.field.coeffs * linear_decay_factors(lat, state.t, t1)
        return SimState(t1, SpectralField(lat, coeffs))
    return SimState(t1, core=core,
                    packed=state.packed * np.exp(core.g_start(state.t) - core.g(t1)))


class _Core:
    """The kept modes of one lattice and mask, packed from the rfft half-spectrum.

    The half-spectrum (nx, ny, nz//2+1) holds the modes with alpha >= 0; a
    real field's alpha < 0 modes are the conjugates of their partners.  The
    kept set is the mask without each axis's Nyquist index n/2, where the
    gradient symbol i*k has no Hermitian partner.  On the self-conjugate
    alpha = 0 plane both members of a pair are stored, so a reality defect
    there is carried through a step instead of being repaired.

    ``neg_idx`` is the one place the pairing is written: the flat
    full-lattice index of -f for each packed mode f.
    """

    def __init__(self, lat: Lattice, mask: np.ndarray | None):
        nx, ny, nz = lat.shape
        keep = np.ones(lat.shape, dtype=bool) if mask is None else mask.copy()
        keep[nx // 2] = keep[:, ny // 2] = keep[:, :, nz // 2] = False
        self.lattice = lat
        self.shape = lat.shape
        self.size = lat.size
        ix, iy, iz = np.nonzero(keep[:, :, : nz // 2 + 1])
        # the transforms' box: signed indices -(c-1)..c-1 on x and y, stored
        # as 0..c-1 then n-c+1..n-1, and 0..c_z-1 on z.  box_idx places the
        # packed modes in it, and is None when they fill it, as for every
        # dealias mask
        cx, cy = (int(np.minimum(i, n - i).max(initial=0)) + 1
                  for i, n in ((ix, nx), (iy, ny)))
        self.cut = (cx, cy, int(iz.max(initial=0)) + 1)
        self.box_shape = (2 * cx - 1, 2 * cy - 1, self.cut[2])
        box_idx = np.ravel_multi_index(
            (np.where(ix < cx, ix, ix - nx + 2 * cx - 1),
             np.where(iy < cy, iy, iy - ny + 2 * cy - 1), iz), self.box_shape)
        self.box_idx = None if box_idx.size == math.prod(self.box_shape) else box_idx
        self.full_idx = np.ravel_multi_index((ix, iy, iz), lat.shape)
        self.neg_idx = np.ravel_multi_index((-ix % nx, -iy % ny, -iz % nz), lat.shape)
        self.upper = iz > 0
        self.mirror_idx = self.neg_idx[self.upper]
        # symmetric iff -f is kept for every packed f and the alpha < 0 modes
        # kept are exactly the mirrors of the packed alpha > 0 ones
        if (not keep.ravel()[self.neg_idx].all()
                or np.count_nonzero(keep) != self.full_idx.size + self.mirror_idx.size):
            raise ValueError("dealias mask must keep -f whenever it keeps f")
        self.mean = np.flatnonzero(self.full_idx == 0)
        # packed positions of the alpha = 0 members and of their partners -f
        self.plane = np.flatnonzero(~self.upper)
        self.plane_pair = np.searchsorted(self.full_idx, self.neg_idx[self.plane])
        self.k = lat.kx.ravel()[ix]
        self.eta = lat.eta.ravel()[iy]
        self.alpha = lat.alpha.ravel()[iz]
        self.grad = (1j * self.k, 1j * self.eta, 1j * self.alpha)
        self.g = _Antiderivative(self.k, self.eta, self.alpha)
        self.u = _Transport(self.k, self.eta, self.alpha)
        self._g_start = (None, None)

    def g_start(self, t: float) -> np.ndarray:
        """Read-only G at t, kept for the last t asked: a linear run's start time."""
        if self._g_start[0] != t:
            g = self.g(t)
            g.flags.writeable = False
            self._g_start = (t, g)
        return self._g_start[1]

    def pack(self, coeffs: np.ndarray) -> np.ndarray:
        return coeffs.ravel()[self.full_idx]

    def unpack(self, packed: np.ndarray) -> np.ndarray:
        out = np.zeros(self.size, dtype=np.complex128)
        out[self.full_idx] = packed
        out[self.mirror_idx] = np.conj(packed[self.upper])
        return out.reshape(self.shape)

    def workspace(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Zero buffers of the inverse passes: the box, then the box widened
        to the lattice on x, then on x and y.  rhs writes only the box
        positions of packed modes and the kept ranges, so they stay zero-padded.
        """
        nx, ny, _ = self.shape
        _, by, bz = self.box_shape
        return (np.zeros(self.box_shape, dtype=np.complex128),
                np.zeros((nx, by, bz), dtype=np.complex128),
                np.zeros((nx, ny, bz), dtype=np.complex128))

    def rhs(self, c: np.ndarray, u, work) -> np.ndarray:
        """Packed -(u . grad theta) for packed c and symbols u; mean mode zeroed."""
        nx, ny, nz = self.shape
        cx, cy, cz = self.cut
        box, wide_x, wide_xy = work

        # 1-D passes over the lines that carry content; norm="forward":
        # theta(x) = sum_f c(f) exp(i f.x) without scaling.  The upper ranges
        # start at n-c+1, not -(c-1), which is the whole axis for c = 1
        def phys(vals):
            if self.box_idx is None:
                b = vals.reshape(self.box_shape)
            else:
                b = box
                b.reshape(-1)[self.box_idx] = vals
            wide_x[:cx] = b[:cx]
            wide_x[nx - cx + 1:] = b[cx:]
            a = np.fft.ifft(wide_x, axis=0, norm="forward")
            wide_xy[:, :cy] = a[:, :cy]
            wide_xy[:, ny - cy + 1:] = a[:, cy:]
            a = np.fft.ifft(wide_xy, axis=1, norm="forward")
            return np.fft.irfft(a, n=nz, axis=2, norm="forward")

        # overflow here surfaces as a NumericalAbort from the stepper's
        # finiteness check rather than as a warning storm
        with np.errstate(over="ignore", invalid="ignore"):
            u1, u2, u3 = u
            g1, g2, g3 = self.grad
            adv = (phys(u1 * c) * phys(g1 * c)
                   + phys(u2 * c) * phys(g2 * c)
                   + phys(u3 * c) * phys(g3 * c))
            f = np.fft.fft(np.fft.rfft(adv, axis=2, norm="forward")[..., :cz],
                           axis=1, norm="forward")
            f = np.fft.fft(np.concatenate((f[:, :cy], f[:, ny - cy + 1:]), axis=1),
                           axis=0, norm="forward")
            out = -np.concatenate((f[:cx], f[nx - cx + 1:])).reshape(-1)
        if self.box_idx is not None:
            out = out[self.box_idx]
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


def nonlinear_rhs(state: SimState, mask: np.ndarray | None = None) -> np.ndarray:
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
    return core.unpack(core.rhs(c, u, core.workspace()))


def step_nonlinear(state: SimState, dt: float, mask: np.ndarray | None = None) -> SimState:
    """One Lawson (integrating-factor) RK4 step of the full equation.

    The linear damping is applied through its exact per-mode propagator, so
    the scheme reduces to step_linear when the nonlinear term vanishes and
    retains classical 4th-order accuracy otherwise.  The step works on the
    packed kept modes (see nonlinear_rhs); content outside them is dropped.
    A state that carries the mask's core is read through its packed values;
    the result carries that core and holds packed values.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    t, h = state.t, dt
    core = _core(state.field.lattice if state.core is None else state.core.lattice, mask)
    c0 = state.packed if state.core is core else core.pack(state.field.coeffs)
    if not np.all(np.isfinite(c0)):
        raise NumericalAbort(f"non-finite state at t={t:.6g}", state)
    work = core.workspace()

    # symbols and damping antiderivatives once per distinct stage time, each
    # symbol set formed when its stage comes, so fewer arrays are live at once
    t_mid, t_end = t + 0.5 * h, t + h
    g_mid = core.g(t_mid)
    e_half = np.exp(core.g(t) - g_mid)
    e_back = np.exp(g_mid - core.g(t_end))
    e_full = e_half * e_back

    k1 = core.rhs(c0, core.u(t), work)
    theta_a = e_half * (c0 + 0.5 * h * k1)
    u_mid = core.u(t_mid)
    k2 = core.rhs(theta_a, u_mid, work)
    theta_b = e_half * c0 + 0.5 * h * k2
    k3 = core.rhs(theta_b, u_mid, work)
    theta_c = e_full * c0 + h * e_back * k3
    k4 = core.rhs(theta_c, core.u(t_end), work)

    c1 = e_full * c0 + (h / 6.0) * (e_full * k1 + 2.0 * e_back * (k2 + k3) + k4)
    if not np.all(np.isfinite(c1)):
        raise NumericalAbort(f"non-finite state at t={t_end:.6g}", state)
    return SimState(t_end, core=core, packed=c1)


def run_simulation(cfg: SimConfig, on_row=None, on_checkpoint=None):
    """Drive a full run; calls ``on_row(state)`` at t=0 and every output time.

    Returns the final state, at ``round(t_end/dt) * dt``.  Every state
    carries the cached core of the dealias mask.  A linear run takes no time
    steps: each state is the exact solution ``step_linear(start, t)`` from
    the initial state, so ``dt`` only sets the time grid, and each holds
    packed coefficients from ``init_field``'s values on.  A nonlinear run
    starts from ``init_field``'s field and then holds the packed values of
    each ``step_nonlinear``.
    ``on_checkpoint(state)`` fires every ``checkpoint_every`` time units in
    nonlinear mode when configured; linear runs never checkpoint.
    """
    state = init_field(cfg)
    if cfg.mode == "linear":
        state = SimState(0.0, core=state.core, packed=state.packed)
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
        state = step_nonlinear(state, cfg.dt, mask)
        # keep t exactly on the uniform grid to avoid drift in long runs
        state.t = i * cfg.dt
        if on_row is not None and i % out_stride == 0:
            on_row(state)
        if ckpt_stride and on_checkpoint is not None and i % ckpt_stride == 0:
            on_checkpoint(state)
    return state
