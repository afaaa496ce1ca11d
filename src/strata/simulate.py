"""Pseudo-spectral evolution in sheared coordinates.

The sheared frame keeps every mode's lattice position fixed while the shear
enters through time-dependent symbols (eta - k t), so the linear part is
solved exactly by an integrating factor: a linear run evaluates that exact
solution at each output time, and only the transport nonlinearity needs a
time stepper (Lawson RK4 on top of the exact factor).  Every damping factor
over [t0, t1] is exp(G(t0) - G(t1)), with G the per-mode damping
antiderivative of the one Couette symbol object, ``symbols._Couette``,
which the public symbols evaluate too.

A state is real by construction.  The initial field and the nonlinear step
work on the kept modes (the dealias mask without Nyquist indices), and of
each +-f pair among them only one member is stored, the one
``Lattice.pairs`` names; on the self-conjugate alpha = 0 plane too, where
the mean mode is its own partner.  ``_Core.unpack`` writes every partner as
the conjugate, so no step checks or repairs Hermitian symmetry.

A ``SimState`` is either a ``SpectralField`` with no core (a loaded
checkpoint, a hand-built field) or the packed stored members with their
``_Core``, the cached core of a dealias mask.  Every state a run makes is
packed, from ``init_field`` on: ``step_linear`` maps packed to packed with G
on the packed modes (G at the start time cached on the core),
``step_nonlinear`` advances the packed values, and
``diagnostics.compute_row`` reduces over them.  A packed state's field is
unpacked once, when first read, and is read-only.

The core holds two such symbol objects, with their t-independent parts
formed once: G on the packed modes (``_Core.modes``) and the transport
velocity u on the transforms' box (``_Core.u``); the nonlinear step
evaluates both once per distinct stage time.  Each RK stage's product is
formed with six inverse and one forward ``numpy.fft`` transform, pruned to
the 1-D lines that carry content: the kept modes have signed y and z
indices below cuts c_y and c_z, so the x pass runs over those (y, z) lines
only and the y pass over those z planes only (the zero-padded
pseudo-spectral product of Canuto, Hussaini, Quarteroni & Zang, *Spectral
Methods*, 2006, skipping the lines Orszag's 2/3 rule leaves empty).  The
stored members, and the conjugates of the alpha = 0 ones at their partners,
are written straight into the x pass's buffer, and the forward pass reads
the packed modes back from the same positions.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .config import ConfigError, SimConfig
from .lattice import Lattice, SpectralField
from .symbols import _Couette
from .symbols import transport_symbol  # noqa: F401  (the benchmark tracer wraps it here)

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
    """A field at time t: a ``SpectralField`` with no core, or packed values with their core.

    A packed state holds the stored member of each +-f pair of the core's
    kept modes, so it is exactly real.  Its values are read-only, and so is
    its field, which is unpacked from them when first read.
    """

    def __init__(self, t: float, field: SpectralField | None = None,
                 core: _Core | None = None, packed: np.ndarray | None = None):
        if (field is None) == (packed is None) or (core is None) != (packed is None):
            raise ValueError("a state holds a field, or packed coefficients with their core")
        if packed is not None:
            packed.flags.writeable = False
        self.t = t
        self.core = core
        self.packed = packed
        self._field = field

    @property
    def field(self) -> SpectralField:
        if self._field is None:
            coeffs = self.core.unpack(self.packed)
            coeffs.flags.writeable = False
            self._field = SpectralField(self.core.lattice, coeffs)
        return self._field

    def copy(self) -> "SimState":
        if self.core is None:
            return SimState(self.t, self._field.copy())
        return SimState(self.t, core=self.core, packed=self.packed.copy())


class NumericalAbort(RuntimeError):
    """NaN/Inf appeared in the state; carries the last finite state for dumping."""

    def __init__(self, message: str, state: SimState | None = None):
        super().__init__(message)
        self.state = state


def init_field(cfg: SimConfig) -> SimState:
    """The packed initial state of a run, on the cached core of its dealias mask.

    Every recipe sets full-lattice coefficients c with amplitudes decaying
    like exp(-lambda_in |f|_1^s).  Each stored member f of the nonlinear
    step's kept modes (the dealias mask without the Nyquist indices) takes
    0.5 * (c(f) + conj c(-f)), and the mean mode 0; the values are then
    rescaled so the sigma=0 Gevrey norm at radius lambda_in of the whole
    real field equals epsilon exactly.  A recipe that puts nothing on the
    kept modes is a ``ConfigError``.
    """
    lat = cfg.lattice
    core = _core(lat, lat.dealias_mask(cfg.dealias))
    coeffs = np.zeros(lat.shape, dtype=np.complex128)
    if cfg.epsilon == 0.0:
        return SimState(0.0, core=core, packed=core.pack(coeffs))
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

    # exact rescale of the radius-lambda_in Gevrey norm to epsilon, summed
    # over the whole lattice
    weighted = np.exp(cfg.lambda_in * lat.l1 ** cfg.s) * np.abs(core.unpack(kept))
    kept *= cfg.epsilon / math.sqrt(lat.delta_eta * float(np.sum(weighted**2)))
    return SimState(0.0, core=core, packed=kept)


def linear_decay_factors(lat: Lattice, t0: float, t1: float) -> np.ndarray:
    """Per-mode exp(-integral of the damping coefficient over [t0, t1]).

    Formed as exp(G(t0) - G(t1)) from one ``symbols._Couette`` on the
    lattice; the mean mode and an empty interval give factor 1 exactly.
    """
    modes = _Couette(lat.kx, lat.eta, lat.alpha)
    return np.exp(modes.G(t0) - modes.G(t1))


def step_linear(state: SimState, dt: float) -> SimState:
    """The exact linear solution dt after ``state``, keeping its core.

    With a core, G is evaluated on the packed modes only and the result
    holds packed coefficients; G is even under f -> -f, so the unpacked
    partners equal the full-lattice product.
    """
    if not 0 < dt < math.inf:
        raise ValueError(f"dt must be positive and finite, got {dt}")
    core, t1 = state.core, state.t + dt
    if core is None:
        lat = state.field.lattice
        coeffs = state.field.coeffs * linear_decay_factors(lat, state.t, t1)
        return SimState(t1, SpectralField(lat, coeffs))
    return SimState(t1, core=core,
                    packed=state.packed * np.exp(core.g_start(state.t) - core.g(t1)))


class _Core:
    """The kept modes of one lattice and mask, packed as one member of each +-f pair.

    The kept set is the mask without each axis's Nyquist index n/2, where
    the gradient symbol i*k has no Hermitian partner.  The packed modes are
    the members ``Lattice.pairs`` names that the kept set holds, in its
    order (so the k = 0 modes come first): every alpha > 0 mode, and one
    member of each pair on the alpha = 0 plane, where the mean mode is its
    own partner.  ``neg_idx`` is the flat full-lattice index of -f for each
    packed f.  ``modes`` is the Couette symbol object on the packed modes,
    whose G is ``g``; ``u`` is the transport velocity of a second one, on
    the transforms' box.
    """

    def __init__(self, lat: Lattice, mask: np.ndarray | None):
        nx, ny, nz = lat.shape
        keep = np.ones(lat.shape, dtype=bool) if mask is None else mask.copy()
        keep[nx // 2] = keep[:, ny // 2] = keep[:, :, nz // 2] = False
        self.lattice = lat
        self.shape = lat.shape
        self.size = lat.size
        members, partners = lat.pairs
        kept = keep.ravel()[members]
        self.full_idx, self.neg_idx = members[kept], partners[kept]
        self.mean = np.flatnonzero(self.full_idx == 0)
        # symmetric iff -f is kept for every packed f and nothing else is kept
        if (not keep.ravel()[self.neg_idx].all()
                or np.count_nonzero(keep) != 2 * self.full_idx.size - self.mean.size):
            raise ValueError("dealias mask must keep -f whenever it keeps f")
        ix, iy, iz = np.unravel_index(self.full_idx, lat.shape)
        self.plane = np.flatnonzero(iz == 0)
        self.modes = _Couette(lat.kx.ravel()[ix], lat.eta.ravel()[iy], lat.alpha.ravel()[iz])
        self.g = self.modes.G
        # the transforms' box: signed indices -(c-1)..c-1 on x and y, stored
        # as 0..c-1 then n-c+1..n-1, and 0..c_z-1 on z.  The symbols u and grad
        # are formed on the whole box (``box`` holds its wavenumbers), the
        # coefficients in the x pass's layout, which spans all of x: x_idx
        # places the packed modes there, x_mirror the partners of the alpha = 0
        # ones
        cx, cy = (int(np.minimum(i, n - i).max(initial=0)) + 1
                  for i, n in ((ix, nx), (iy, ny)))
        self.cut = (cx, cy, int(iz.max(initial=0)) + 1)
        self.x_shape = (nx, 2 * cy - 1, self.cut[2])
        box_shape = (2 * cx - 1, *self.x_shape[1:])
        self.box = (lat.kx[np.r_[:cx, nx - cx + 1:nx]], lat.eta[:, np.r_[:cy, ny - cy + 1:ny]],
                    lat.alpha[..., :self.cut[2]])
        self.grad = tuple(np.broadcast_to(1j * v, box_shape) for v in self.box)
        self.u = _Couette(*self.box).transport

        def x_at(jx, jy, jz):
            return np.ravel_multi_index((jx, np.where(jy < cy, jy, jy - ny + 2 * cy - 1), jz),
                                        self.x_shape)

        self.x_idx = x_at(ix, iy, iz)
        self.x_mirror = x_at(-ix[self.plane] % nx, -iy[self.plane] % ny, 0)
        self._g_start = (None, None)

    def g_start(self, t: float) -> np.ndarray:
        """Read-only G at t, kept for the last t asked: a linear run's start time."""
        if self._g_start[0] != t:
            g = self.g(t)
            g.flags.writeable = False
            self._g_start = (t, g)
        return self._g_start[1]

    def pack(self, coeffs: np.ndarray) -> np.ndarray:
        """The stored members; the mean mode, its own partner, keeps its real part."""
        out = coeffs.ravel()[self.full_idx]
        out[self.mean] = out[self.mean].real
        return out

    def unpack(self, packed: np.ndarray) -> np.ndarray:
        """The real field: each partner the conjugate, then the members (the mean is its own).

        Adding +0 makes the conjugate of a zero +0, as the symmetrization
        0.5 * (c(f) + conj c(-f)) gives.
        """
        out = np.zeros(self.size, dtype=np.complex128)
        out[self.neg_idx] = np.conj(packed) + 0.0
        out[self.full_idx] = packed
        return out.reshape(self.shape)

    def workspace(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Zero buffers in the x pass's layout, for the coefficients and for
        the pass's input, then the latter widened to the lattice on y.  rhs
        writes only the positions of packed modes and their alpha = 0
        partners, the box's x ranges and the kept y ranges, so they stay
        zero-padded.
        """
        nx, ny, _ = self.shape
        return (np.zeros(self.x_shape, dtype=np.complex128),
                np.zeros(self.x_shape, dtype=np.complex128),
                np.zeros((nx, ny, self.cut[2]), dtype=np.complex128))

    def rhs(self, c: np.ndarray, u, work) -> np.ndarray:
        """Packed -(u . grad theta) for packed c and symbols u on the box; mean mode zeroed."""
        nx, ny, nz = self.shape
        cx, cy, cz = self.cut
        coeffs, wide_x, wide_xy = work
        flat = coeffs.reshape(-1)
        flat[self.x_mirror] = np.conj(c[self.plane])
        flat[self.x_idx] = c      # after the mirrors: the mean mode is its own

        # 1-D passes over the lines that carry content; norm="forward":
        # theta(x) = sum_f c(f) exp(i f.x) without scaling.  The upper ranges
        # start at n-c+1, not -(c-1), which is the whole axis for c = 1
        def phys(symbol):
            np.multiply(symbol[:cx], coeffs[:cx], out=wide_x[:cx])
            np.multiply(symbol[cx:], coeffs[nx - cx + 1:], out=wide_x[nx - cx + 1:])
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
            adv = phys(u1) * phys(g1) + phys(u2) * phys(g2) + phys(u3) * phys(g3)
            f = np.fft.fft(np.fft.rfft(adv, axis=2, norm="forward")[..., :cz],
                           axis=1, norm="forward")
            f = np.fft.fft(np.concatenate((f[:, :cy], f[:, ny - cy + 1:]), axis=1),
                           axis=0, norm="forward")
            out = f.reshape(-1)[self.x_idx]
            np.negative(out, out=out)
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
    c = core.pack(state.field.coeffs)
    return core.unpack(core.rhs(c, core.u(state.t), core.workspace()))


def step_nonlinear(state: SimState, dt: float, mask: np.ndarray | None = None) -> SimState:
    """One Lawson (integrating-factor) RK4 step of the full equation.

    The linear damping is applied through its exact per-mode propagator, so
    the scheme reduces to step_linear when the nonlinear term vanishes and
    retains classical 4th-order accuracy otherwise.  The step works on the
    packed kept modes (see nonlinear_rhs); content outside them is dropped,
    and so is the partner of each stored member, which the result writes as
    the member's conjugate.  The result is packed on the mask's core.
    """
    if not 0 < dt < math.inf:
        raise ValueError(f"dt must be positive and finite, got {dt}")
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

    Returns the final state, at ``round(t_end/dt) * dt``.  Every state is
    packed on the cached core of the dealias mask.  A linear run takes no
    time steps: each state is the exact solution ``step_linear(start, t)``
    from ``init_field``'s state, so ``dt`` only sets the time grid.  A
    nonlinear run advances ``init_field``'s state by ``step_nonlinear``.
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
        state = step_nonlinear(state, cfg.dt, mask)
        # keep t exactly on the uniform grid to avoid drift in long runs
        state.t = i * cfg.dt
        if on_row is not None and i % out_stride == 0:
            on_row(state)
        if ckpt_stride and on_checkpoint is not None and i % ckpt_stride == 0:
            on_checkpoint(state)
    return state
