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
work on the kept modes (a dealias fraction's mask less Nyquist), and of
each +-f pair among them only one member is stored, the one
``Lattice.pairs`` names; on the self-conjugate alpha = 0 plane too, where
the mean mode is its own partner.  ``init_field`` evaluates its recipe
only at the stored members and their partners.  ``_Core.unpack`` writes
every partner as the conjugate, so no step checks or repairs Hermitian
symmetry.

A ``SimState`` is either a ``SpectralField`` with no core (a loaded
checkpoint, a hand-built field) or the packed stored members with their
``_Core``, the cached core of a dealias fraction.  Every state a run makes is
packed, from ``init_field`` on: ``step_linear`` maps packed to packed with G
on the packed modes (G at the start time cached on the core),
``step_nonlinear`` advances the packed values, and
``diagnostics.compute_row`` reduces over them.  A packed state is a value:
its stored members are read-only, and its field is unpacked from them at
each read, read-only and kept nowhere, so ``simulate`` alone knows how a
state becomes a field.  A field without a core
enters ``step_linear`` and ``compute_row`` through ``SimState.packed_on(1.0)``,
which refuses one that is not real on the kept modes; ``step_nonlinear``
packs it, dropping what lies off them, as dealiasing does.

The core holds one such symbol object, on the packed modes
(``_Core.modes``), with G's t-independent parts formed once; the transport
velocity u on the transforms' box is ``symbols.transport_symbol`` of the
box's broadcast axes (``_Core.u``).  The nonlinear step evaluates G and u
once per distinct stage time, and those at its two ends through a one-entry
``functools.lru_cache`` on the core (``_Core.g_memo``, ``_Core.u_memo``): a
run's step ends on its grid time i dt exactly, where the next step reads
them back, and a linear run its start time's G.  Each memo caches a pure
function of t, read-only, for as long as the core lives; the cache is
thread-safe and returns the value of the time asked, so runs that share a
core in several threads read consistent values.  Each RK stage's
product is formed with six inverse and one forward transform, pruned to the
1-D lines that carry content: the kept modes have signed y and z indices
below cuts c_y and c_z, so the x pass runs over those (y, z) lines only and
the y pass over those z planes only (the zero-padded pseudo-spectral
product of Canuto, Hussaini, Quarteroni & Zang, *Spectral Methods*, 2006,
skipping the lines Orszag's 2/3 rule leaves empty).  The x and y passes are
``numpy.fft`` transforms; the z pass, c_z modes to n_z points and back, is
a product with a real DFT matrix (``_Core.z_inv``, ``_Core.z_fwd``), one
BLAS call per x plane: a pruned DFT (Sorensen & Burrus, IEEE Trans. Signal
Process. 41 (1993) 1184-1200), which beats the FFT when few inputs or
outputs are needed.  The
stored members, and the conjugates of the alpha = 0 ones at their partners,
are written straight into the x pass's buffer, and the forward pass reads
the packed modes back from the same positions.  Every transform writes into
a ``_Core.workspace``, which ``run_states`` allocates once for its steps
(a lone ``step_nonlinear`` makes its own): five buffers, in whose leading
slots the other passes' inputs and outputs lie while the buffer is dead,
so each inverse transform re-zeroes the gaps its passes read as zeros.
The product is formed in place there, so a step allocates only arrays of
the packed size; the Lawson stages are formed in place too, on two packed
buffers, and the last right-hand side is gathered into the third's.

No array the size of the lattice outlives the statement that needs it.
``init_field`` forms |f|_1 on the packed modes (``_Core.modes``), and its
rescale sum from one lattice-sized float array; the core reads
``Lattice.pairs``, which the lattice does not keep; and ``run_states``
drops the workspace before it yields the end state, or when it is closed
early.  Between runs a core holds only arrays of the packed size and of the
transforms' box, its memos' u and G among them, and the two z matrices of
2 c_z x n_z values each.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .config import ConfigError, SimConfig
from .lattice import Lattice, SpectralField, l1_norm
from .symbols import _Couette, damping_integral, transport_symbol

__all__ = [
    "SimState",
    "NumericalAbort",
    "init_field",
    "linear_decay_factors",
    "step_linear",
    "nonlinear_rhs",
    "step_nonlinear",
    "run_states",
    "run_simulation",
]


class SimState:
    """A field at time t: a ``SpectralField`` with no core, or packed values with their core.

    A packed state holds the stored member of each +-f pair of the core's
    kept modes, so it is exactly real.  Its values are read-only, and so is
    its field, which is unpacked from them at each read and kept nowhere.
    """

    def __init__(self, t: float, field: SpectralField | None = None,
                 core: _Core | None = None, packed: np.ndarray | None = None):
        if (field is None) == (packed is None) or (core is None) != (packed is None):
            raise ValueError("a state holds a field, or packed coefficients with their core")
        self.t = t
        self.core = core
        self.packed = None if packed is None else _read_only(packed)
        self._field = field

    @property
    def field(self) -> SpectralField:
        if self.core is None:
            return self._field
        return SpectralField(self.core.lattice, _read_only(self.core.unpack(self.packed)))

    def packed_on(self, dealias: float) -> "SimState":
        """This state on the cached core of its lattice and ``dealias``.

        A state packed on that core is returned as it is.  Any other is packed
        from its field, and refused (``ValueError``) unless unpacking gives the
        field back exactly: content off the kept modes (at 1.0, a Nyquist
        index), a field that is not Hermitian, a complex mean or a NaN.
        """
        if self.core is not None and self.core is _core(self.core.lattice, dealias):
            return self
        field = self.field          # read once: a packed state unpacks it at each read
        core = _core(field.lattice, dealias)
        packed = core.pack(field.coeffs)
        if not np.array_equal(core.unpack(packed), field.coeffs):
            raise ValueError(f"the field at t={self.t:.6g} is not real on the kept modes "
                             f"of dealias fraction {dealias}")
        return SimState(self.t, core=core, packed=packed)


def _read_only(value):
    """``value``, an array or a tuple of arrays, made read-only."""
    for a in value if isinstance(value, tuple) else (value,):
        a.flags.writeable = False
    return value


class NumericalAbort(RuntimeError):
    """NaN/Inf appeared in the state; carries the last finite state for dumping."""

    def __init__(self, message: str, state: SimState | None = None):
        super().__init__(message)
        self.state = state


def init_field(cfg: SimConfig) -> SimState:
    """The packed initial state of a run, on the cached core of its dealias fraction.

    Every recipe sets coefficients c with amplitudes decaying like
    exp(-lambda_in |f|_1^s).  Each stored member f of the nonlinear step's
    kept modes (see ``_Core``) takes 0.5 * (c(f) + conj c(-f)), and the mean
    mode 0; the values are then rescaled so the sigma=0 Gevrey norm at radius
    lambda_in of the whole real field equals epsilon exactly.  |f|_1 is
    evaluated on the members, whose partners share it, and c only at the
    members and their partners; the random recipe still draws its phases and
    amplitudes on the whole lattice, so a seed gives the values of a
    whole-lattice draw.  A recipe that puts nothing on the kept modes is a
    ``ConfigError``.
    """
    lat = cfg.lattice
    core = _core(lat, cfg.dealias)
    n = core.full_idx.size
    if cfg.epsilon == 0.0:
        return SimState(0.0, core=core, packed=np.zeros(n, dtype=np.complex128))
    # |f|_1, the decay and the index cap on the members; a partner -f has its
    # member's, so the arrays over the members and then their partners are tiled
    m = core.modes
    l1s = l1_norm(m.k, m.eta, m.alpha) ** cfg.s
    decay, support = np.tile(np.exp(-cfg.lambda_in * l1s), 2), np.ones(2 * n, dtype=bool)
    if cfg.init_kmax > 0:
        # index-space cap on every axis (|eta| <= kc delta_eta is |jy| <= kc);
        # without it the spectral cascade fills the envelope at fresh modes and
        # the weighted-norm ratios measure the filling instead of the dynamics
        kc = cfg.init_kmax
        support = np.tile((np.abs(m.k) <= kc) & (np.abs(m.eta) <= kc * lat.delta_eta)
                          & (np.abs(m.alpha) <= kc), 2)

    c = np.zeros(2 * n, dtype=np.complex128)
    if cfg.recipe == "single":
        one = core.full_idx == np.ravel_multi_index((1, 1, 1), lat.shape)
        c[:n][one] = decay[:n][one]
    elif cfg.recipe == "multimode":
        c[support] = decay[support]
    else:  # random
        rng = np.random.default_rng(cfg.seed)
        idx = np.concatenate([core.full_idx, core.neg_idx])
        phases = rng.uniform(0.0, 2.0 * np.pi, size=lat.size)[idx]
        amps = rng.uniform(0.5, 1.0, size=lat.size)[idx]
        c = np.where(support, amps * decay * np.exp(1j * phases), 0.0)

    kept = 0.5 * (c[:n] + np.conj(c[n:]))
    kept[0] = 0.0
    if not np.any(kept):
        raise ConfigError(f"init recipe {cfg.recipe!r} puts nothing on the kept modes")

    # exact rescale of the radius-lambda_in Gevrey norm to epsilon: the
    # squared weighted magnitudes of the members and partners, at their
    # lattice positions and 0 elsewhere, summed over the whole lattice in its
    # order (|conj c| = |c|; the mean mode, its own partner, is 0)
    squares = np.zeros(lat.size)
    squares[core.full_idx] = squares[core.neg_idx] = (np.exp(cfg.lambda_in * l1s)
                                                      * np.abs(kept)) ** 2
    kept *= cfg.epsilon / math.sqrt(lat.delta_eta * float(np.sum(squares.reshape(lat.shape))))
    return SimState(0.0, core=core, packed=kept)


def linear_decay_factors(lat: Lattice, t0: float, t1: float) -> np.ndarray:
    """Per-mode exp(-integral of the damping coefficient over [t0, t1]), t0 <= t1.

    The mean mode and an empty interval give factor 1 exactly.
    """
    return np.exp(-damping_integral(t0, t1, lat.kx, lat.eta, lat.alpha))


def step_linear(state: SimState, dt: float) -> SimState:
    """The exact linear solution dt after ``state``, keeping its core.

    G is evaluated on the packed modes only and the result holds packed
    coefficients; G is even under f -> -f, so the unpacked partners equal
    the full-lattice product.  A state without a core is packed first, by
    ``state.packed_on(1.0)``.
    """
    if not 0 < dt < math.inf:
        raise ValueError(f"dt must be positive and finite, got {dt}")
    if state.core is None:
        state = state.packed_on(1.0)
    core, t1 = state.core, state.t + dt
    return SimState(t1, core=core,
                    packed=state.packed * np.exp(core.g_memo(state.t) - core.g(t1)))


class _Core:
    """The kept modes of a lattice and dealias fraction, one member of each +-f pair.

    The kept set is ``lat.dealias_mask(dealias)``, even in f, without each
    axis's Nyquist index n/2, where the gradient symbol i*k has no
    Hermitian partner.  The packed modes are the members ``Lattice.pairs``
    names that the kept set holds, in its order (so the k = 0 modes come
    first): every alpha > 0 mode, and one member of each pair on the
    alpha = 0 plane, where the mean mode, packed position 0, is its own
    partner.  ``neg_idx`` is the flat full-lattice index of -f for each
    packed f.  ``modes`` is the one Couette symbol object, on the packed
    modes, whose G is ``g``; ``u`` is the transport velocity on the
    transforms' box, evaluated from its axes at each call; ``z_inv`` and
    ``z_fwd`` are the z pass's real DFT matrices.  ``g_memo`` and
    ``u_memo`` are this core's own ``lru_cache(maxsize=1)`` over ``g`` and
    ``u``: read-only values at the last time asked of each, kept for as long
    as the core lives, and never evicted by another core's.
    """

    def __init__(self, lat: Lattice, dealias: float):
        nx, ny, nz = lat.shape
        keep = lat.dealias_mask(dealias)
        keep[nx // 2] = keep[:, ny // 2] = keep[:, :, nz // 2] = False
        self.lattice = lat
        members, partners = lat.pairs
        kept = keep.ravel()[members]
        self.full_idx, self.neg_idx = members[kept], partners[kept]
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

        def x_at(jx, jy, jz):
            return np.ravel_multi_index((jx, np.where(jy < cy, jy, jy - ny + 2 * cy - 1), jz),
                                        self.x_shape)

        self.x_idx = x_at(ix, iy, iz)
        self.x_mirror = x_at(*np.unravel_index(self.neg_idx[self.plane], lat.shape))
        # the z pass as real DFT matrices on the interleaved re/im of the c_z
        # kept modes: a pruned DFT, a small product where the FFT would fill
        # and transform all n_z/2 + 1.  z_inv weighs the mean 1, and its
        # imaginary part sin 0 = 0, as irfft drops it, and every other mode 2;
        # z_fwd carries the 1/n_z of norm="forward"
        cz = self.cut[2]
        phase = (2.0 * np.pi / nz) * (np.outer(np.arange(cz), np.arange(nz)) % nz)
        cos, sin = np.cos(phase), np.sin(phase)
        weight = np.where(np.arange(cz) == 0, 1.0, 2.0)[:, None]
        self.z_inv = np.stack([weight * cos, -weight * sin], axis=1).reshape(2 * cz, nz)
        self.z_fwd = np.stack([cos.T, -sin.T], axis=2).reshape(nz, 2 * cz) / nz
        # read-only u and G, kept for the last t asked: a step's ends, a linear run's start
        self.u_memo = lru_cache(maxsize=1)(lambda t: _read_only(self.u(t)))
        self.g_memo = lru_cache(maxsize=1)(lambda t: _read_only(self.g(t)))

    def u(self, t: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The transport velocity at t on the transforms' box."""
        return transport_symbol(t, *self.box)

    def pack(self, coeffs: np.ndarray) -> np.ndarray:
        """The stored members; the mean mode, its own partner, keeps its real part."""
        out = coeffs.ravel()[self.full_idx]
        out[0] = out[0].real
        return out

    def unpack(self, packed: np.ndarray) -> np.ndarray:
        """The real field: each partner the conjugate, then the members (the mean is its own).

        Adding +0 makes the conjugate of a zero +0, as the symmetrization
        0.5 * (c(f) + conj c(-f)) gives.
        """
        out = np.zeros(self.lattice.size, dtype=np.complex128)
        out[self.neg_idx] = np.conj(packed) + 0.0
        out[self.full_idx] = packed
        return out.reshape(self.lattice.shape)

    def workspace(self) -> tuple[np.ndarray, ...]:
        """The buffers ``rhs`` works in, for as long as the caller holds them.

        ``run_states`` makes one for its steps and drops it before it yields
        the end state; a lone ``step_nonlinear`` makes its own.  One zeroed
        block holds five buffers: the coefficients in the x pass's layout,
        the y pass's lines and the three physical arrays of the product.  The
        seven views returned are, in order: the coefficients, whose zero
        padding persists, as rhs writes only the positions of packed modes
        and their alpha = 0 partners; the x pass's input, in the lines'
        leading slots; the lines, which the z pass reads and writes as
        interleaved re/im; the physical arrays; the forward x pass's output,
        in the leading slots of the first, whose z product has run by then.
        ``rhs`` builds each inverse transform's y-pass input in the leading
        slots of the physical array it ends in, re-zeroing the gaps of both
        inputs, and writes the forward y pass into the second's.
        """
        nx, ny, nz = self.lattice.shape
        wide = (nx, ny, self.cut[2])
        # one zeroed block, so the buffers leave memory together; a physical
        # array takes n/2 complex slots (every axis is even)
        n_x, n_wide, n_phys = math.prod(self.x_shape), math.prod(wide), nx * ny * nz // 2
        block = np.zeros(n_x + n_wide + 3 * n_phys, dtype=np.complex128)
        coeffs, lines, *phys = np.split(block, np.cumsum([n_x, n_wide, n_phys, n_phys]))
        return (coeffs.reshape(self.x_shape), lines[:n_x].reshape(self.x_shape),
                lines.reshape(wide), *(p.view(np.float64).reshape(nx, ny, nz) for p in phys),
                phys[0][:n_x].reshape(self.x_shape))

    def rhs(self, c: np.ndarray, u, work, out: np.ndarray | None = None) -> np.ndarray:
        """Packed -(u . grad theta) for packed c and symbols u on the box; mean mode zeroed.

        ``work`` is a ``workspace()`` of this core.  Every transform writes
        into it, so the call allocates nothing the size of a transform: the x
        and y passes by ``numpy.fft`` with ``out``, the z pass by ``np.matmul``
        with the core's DFT matrices and ``out``.  The result is gathered into
        ``out``, a packed array that is not ``c``, when one is given.
        """
        nx, ny, _ = self.lattice.shape
        cx, cy, _ = self.cut
        coeffs, wide_x, lines, adv, term, factor, spec = work
        flat = coeffs.reshape(-1)
        flat[self.x_mirror] = np.conj(c[self.plane])
        flat[self.x_idx] = c      # after the mirrors: the mean mode is its own
        # the kept y ranges, in the x pass's layout and on the lattice; the
        # upper one starts at n-c+1, not -(c-1), which is the whole axis for c = 1
        y_ranges = ((slice(None, cy), slice(None, cy)),
                    (slice(cy, None), slice(ny - cy + 1, None)))

        def leading(phys):
            """A lines-shaped complex view of ``phys``'s leading slots."""
            return phys.reshape(-1).view(np.complex128)[:lines.size].reshape(lines.shape)

        # 1-D passes over the lines that carry content; norm="forward":
        # theta(x) = sum_f c(f) exp(i f.x) without scaling.  The y pass's
        # input is built in the leading slots of ``phys``, which only the z
        # product writes; the x rows past the box and the y rows between the
        # kept ranges are the zeros the passes read, re-zeroed at each call.
        # The z products go one x plane per BLAS call, each small enough to
        # stay on one thread
        def phys_into(phys, symbol):
            wide_xy = leading(phys)
            wide_x[cx:nx - cx + 1] = 0.0
            np.multiply(symbol[:cx], coeffs[:cx], out=wide_x[:cx])
            np.multiply(symbol[cx:], coeffs[nx - cx + 1:], out=wide_x[nx - cx + 1:])
            wide_xy[:, cy:ny - cy + 1] = 0.0
            for in_x, in_lat in y_ranges:
                np.fft.ifft(wide_x[:, in_x], axis=0, norm="forward", out=wide_xy[:, in_lat])
            np.fft.ifft(wide_xy, axis=1, norm="forward", out=lines)
            return np.matmul(lines.view(np.float64), self.z_inv, out=phys)

        # overflow here surfaces as a NumericalAbort from the stepper's
        # finiteness check rather than as a warning storm
        with np.errstate(over="ignore", invalid="ignore"):
            u1, u2, u3 = u
            g1, g2, g3 = self.grad
            # u1 g1 + u2 g2 + u3 g3, formed in place in that order
            phys_into(adv, u1)
            adv *= phys_into(factor, g1)
            phys_into(term, u2)
            term *= phys_into(factor, g2)
            adv += term
            phys_into(term, u3)
            term *= phys_into(factor, g3)
            adv += term
            # the y pass writes into term's slots, and spec takes adv's once
            # its z product has run
            np.matmul(adv, self.z_fwd, out=lines.view(np.float64))
            wide_y = np.fft.fft(lines, axis=1, norm="forward", out=leading(term))
            for in_x, in_lat in y_ranges:
                np.fft.fft(wide_y[:, in_lat], axis=0, norm="forward", out=spec[:, in_x])
            out = np.take(spec.reshape(-1), self.x_idx, out=out)
            np.negative(out, out=out)
        out[0] = 0.0
        return out


# one core object per (lattice, dealias fraction), so callers pass both positionally
_core = lru_cache(maxsize=8)(_Core)


def _on_core(state: SimState, dealias: float) -> tuple[_Core, np.ndarray]:
    """``state``'s core for ``dealias`` and its values there: its own, or its field packed."""
    core = _core(state.field.lattice if state.core is None else state.core.lattice, dealias)
    return core, state.packed if state.core is core else core.pack(state.field.coeffs)


def nonlinear_rhs(state: SimState, dealias: float = 1.0) -> np.ndarray:
    """Spectral coefficients of -(u . grad theta), dealiased, mean mode zeroed.

    u is the moving-frame transport velocity and grad is the plain
    (ik, i eta, i alpha) gradient of the sheared coordinates; u is
    divergence-free, so the mean of u . grad theta vanishes identically and
    the zero mode is pinned to machine zero.  The result is zero outside the
    kept modes of ``dealias`` (see ``_Core``): at 1.0 all but Nyquist.
    """
    core, c = _on_core(state, dealias)
    return core.unpack(core.rhs(c, core.u(state.t), core.workspace()))


def step_nonlinear(state: SimState, dt: float, dealias: float = 1.0,
                   work: tuple[np.ndarray, ...] | None = None) -> SimState:
    """One Lawson (integrating-factor) RK4 step of the full equation.

    The linear damping is applied through its exact per-mode propagator, so
    the scheme reduces to step_linear when the nonlinear term vanishes and
    retains classical 4th-order accuracy otherwise.  The step works on the
    packed kept modes (see nonlinear_rhs); content outside them is dropped,
    and so is the partner of each stored member, which the result writes as
    the member's conjugate.  The result is packed on the core of ``dealias``.
    ``work`` is a ``workspace()`` of that core to reuse, as ``run_states``
    does over its steps; without one the step makes its own.
    """
    if not 0 < dt < math.inf:
        raise ValueError(f"dt must be positive and finite, got {dt}")
    t, h = state.t, dt
    core, c0 = _on_core(state, dealias)
    if not np.all(np.isfinite(c0)):
        raise NumericalAbort(f"non-finite state at t={t:.6g}", state)
    if work is None:
        work = core.workspace()

    # symbols and damping antiderivatives once per distinct stage time, each
    # symbol set formed when its stage comes, so fewer arrays are live at
    # once; those at the ends go through the core's memo, so a step that
    # starts where the last one ended reads its start values back
    t_mid, t_end = t + 0.5 * h, t + h
    g_mid = core.g(t_mid)
    e_half = np.exp(core.g_memo(t) - g_mid)
    e_back = np.exp(g_mid - core.g_memo(t_end))
    del g_mid
    e_full = e_half * e_back

    # the stages on two packed buffers, each operation with its operands in
    # the order of the expression in its comment; each array is dropped, or
    # reused, once no later operation reads it
    k1 = core.rhs(c0, core.u_memo(t), work)
    theta = np.multiply(0.5 * h, k1)                     # e_half * (c0 + 0.5 h k1)
    np.add(c0, theta, out=theta)
    np.multiply(e_half, theta, out=theta)
    u_mid = core.u(t_mid)
    k2 = core.rhs(theta, u_mid, work)
    scaled = np.multiply(e_half, c0)                     # e_half c0 + 0.5 h k2
    np.add(scaled, np.multiply(0.5 * h, k2, out=theta), out=theta)
    k3 = core.rhs(theta, u_mid, work)
    del u_mid, e_half
    np.multiply(e_full, c0, out=scaled)                  # e_full c0 + (h e_back) k3
    np.add(scaled, np.multiply(h * e_back, k3, out=theta), out=theta)
    np.add(k2, k3, out=k2)                               # k2 + k3, so k4 takes k3's buffer
    k4 = core.rhs(theta, core.u_memo(t_end), work, out=k3)

    # e_full c0 + (h/6) (e_full k1 + (2 e_back) (k2 + k3) + k4); scaled holds e_full c0
    np.multiply(2.0 * e_back, k2, out=k2)
    np.multiply(e_full, k1, out=k1)
    np.add(k1, k2, out=k1)
    np.add(k1, k4, out=k1)
    c1 = np.add(scaled, np.multiply(h / 6.0, k1, out=k1), out=scaled)
    if not np.all(np.isfinite(c1)):
        raise NumericalAbort(f"non-finite state at t={t_end:.6g}", state)
    return SimState(t_end, core=core, packed=c1)


def run_states(cfg: SimConfig):
    """Yield ``(state, row, checkpoint)`` for each state a run of ``cfg`` hands on.

    ``row`` marks t = 0 and each output time, ``checkpoint`` each
    ``checkpoint_every`` of a nonlinear run; the end, at ``round(t_end/dt) * dt``,
    comes last.  A nonlinear run yields ``init_field``'s state and each step's:
    step i ends on i dt exactly, as it steps by i dt - (i-1) dt, which is exact
    (Sterbenz's lemma).  A linear run yields its start, output times and end,
    each the exact ``step_linear(start, i dt)``.  Every state is packed on
    ``cfg.dealias``'s core.
    """
    n_steps = round(cfg.t_end / cfg.dt)
    out_stride = round(cfg.output_every / cfg.dt)
    state = init_field(cfg)
    yield state, True, False
    if cfg.mode == "linear":
        for i in range(out_stride, n_steps + 1, out_stride):
            yield step_linear(state, i * cfg.dt), True, False
        if n_steps % out_stride:
            yield step_linear(state, n_steps * cfg.dt), False, False
        return
    ckpt_stride = round(cfg.checkpoint_every / cfg.dt) or n_steps + 1
    # one workspace for every step, dropped before the end state is handed on
    work = state.core.workspace()
    for i in range(1, n_steps + 1):
        state = step_nonlinear(state, i * cfg.dt - state.t, cfg.dealias, work)
        if i == n_steps:
            del work
        yield state, i % out_stride == 0, i % ckpt_stride == 0


def run_simulation(cfg: SimConfig, on_row=None, on_checkpoint=None) -> SimState:
    """The end state of ``cfg``'s ``run_states``; calls ``on_row``/``on_checkpoint`` on theirs."""
    for state, row, checkpoint in run_states(cfg):
        if row and on_row is not None:
            on_row(state)
        if checkpoint and on_checkpoint is not None:
            on_checkpoint(state)
    return state
