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
velocity u on the transforms' box, cut on y to the kept ranges, is
``symbols.transport_symbol`` of the box's broadcast axes (``_Core.u``).
The nonlinear step evaluates G and u once per distinct stage time, and
those at its two ends through a one-entry ``functools.lru_cache`` on the
core (``_Core.g_memo``, ``_Core.u_memo``): a run's step ends on its grid
time i dt exactly, where the next step reads them back, and a linear run
its start time's G.  Each memo caches a pure function of t, read-only, for
as long as the core lives; the cache is thread-safe and returns the value
of the time asked, so runs that share a core in several threads read
consistent values.

Each RK stage's product is formed with six inverse transforms and one
forward transform, pruned to the lines that carry content (the
zero-padded pseudo-spectral product of Canuto, Hussaini, Quarteroni &
Zang, *Spectral Methods*, 2006, skipping the lines Orszag's 2/3 rule
leaves empty): the kept modes have signed x, y and z indices
below cuts c_x, c_y and c_z.  The inverse passes go y, x, z, and the
forward ones z, x, y.  The y pass is a ``numpy.fft`` transform over the
(2 c_x - 1) c_z lines of the transforms' box, (2 c_x - 1) x n_y x c_z.
The x pass, 2 c_x - 1 modes to n_x points and back, is a product with a
complex DFT matrix, and the z pass, c_z modes to n_z points and back, with
a real one: pruned DFTs (Sorensen & Burrus, IEEE Trans. Signal Process. 41
(1993) 1184-1200), which beat the FFT when few inputs or outputs are
needed.  Each BLAS call stays on one thread: the z pass makes one per x
plane, and the x pass one per block of y rows, as many as keep it below
the size at which OpenBLAS spreads a product over threads
(``_ONE_THREAD_MNK``).  The gradient's i k and i alpha are folded into
second x and z matrices (``_Core.x_dx``, ``_Core.z_dz``), so d_x theta
and d_z theta share theta's one y pass: six y passes per right-hand side.
The stored members, and the conjugates of the alpha = 0 ones at their
partners, are written straight into the box, and the forward pass reads
the packed modes back from the same positions.  Every transform writes
into a ``_Core.workspace``, which ``run_states`` allocates once for its
steps (a lone ``step_nonlinear`` makes its own): five buffers, in two of
which a box-sized slot lies while the buffer is dead, so each y pass of a
symbol's product re-zeroes there the rows between the kept y ranges,
which it reads as zeros.  The product is formed in place there, so a step
allocates only arrays of the packed size; the Lawson stages are formed in
place too, on two packed buffers, and the last right-hand side is gathered
into the third's.

No array the size of the lattice outlives the statement that needs it.
``init_field`` forms |f|_1 on the packed modes (``_Core.modes``), and its
rescale sum from one lattice-sized float array; the core reads
``Lattice.pairs``, which the lattice does not keep; and ``run_states``
drops the workspace before it yields the end state, or when it is closed
early.  Between runs a core holds only arrays of the packed size and of the
transforms' box, its memos' u and G among them, and the DFT matrices: three
x matrices of n_x (2 c_x - 1) complex values and three z matrices of
2 c_z n_z real ones.
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


# the most multiply-adds, m n k, of one complex BLAS product in ``_Core.rhs``:
# OpenBLAS 0.3.31 ran a zgemm on one thread below 2^16 and on all CPUs from
# there on (2-CPU Xeon, CPU / wall 1.0 against 2.0)
_ONE_THREAD_MNK = 2 ** 16 - 1


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
    transforms' box, cut on y to the kept ranges, evaluated from its axes
    at each call.  ``x_inv``,
    ``x_dx`` and ``x_fwd`` are the x pass's complex DFT matrices, the second
    with i k folded in; ``z_inv``, ``z_dz`` and ``z_fwd`` the z pass's real
    ones, the second with i alpha folded in; ``y_block`` is the y rows of
    one x-pass product.  ``g_memo`` and ``u_memo`` are this core's own
    ``lru_cache(maxsize=1)`` over ``g`` and ``u``: read-only values at the
    last time asked of each, kept for as long as the core lives, and never
    evicted by another core's.
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
        # the transforms' box: signed indices -(c-1)..c-1 on x, stored as
        # 0..c-1 then n-c+1..n-1, all of y and 0..c_z-1 on z.  The
        # coefficients fill it (box_idx places the packed modes there,
        # box_mirror the partners of the alpha = 0 ones), zero between the
        # kept y ranges -(c_y-1)..c_y-1, where the y pass reads them; the
        # symbols u and i eta are formed on those ranges only (``box`` holds
        # their wavenumbers)
        cx, cy = (int(np.minimum(i, n - i).max(initial=0)) + 1
                  for i, n in ((ix, nx), (iy, ny)))
        cz = int(iz.max(initial=0)) + 1
        self.cut = (cx, cy, cz)
        kept_x = np.r_[:cx, nx - cx + 1:nx]
        self.box = (lat.kx[kept_x], lat.eta[:, np.r_[:cy, ny - cy + 1:ny]], lat.alpha[..., :cz])
        self.i_eta = 1j * self.box[1]
        self.box_shape = (2 * cx - 1, ny, cz)

        def box_at(jx, jy, jz):
            return np.ravel_multi_index((np.where(jx < cx, jx, jx - nx + 2 * cx - 1), jy, jz),
                                        self.box_shape)

        self.box_idx = box_at(ix, iy, iz)
        self.box_mirror = box_at(*np.unravel_index(self.neg_idx[self.plane], lat.shape))
        # the x and z passes as pruned DFT matrices (Sorensen & Burrus), a
        # small product where the FFT would fill and transform the whole axis.
        # On x, complex: x_inv takes the box's 2c_x - 1 rows to the n_x
        # points, x_dx the same with the i k of each row folded in, and x_fwd
        # back, with the 1/n_x of norm="forward".  On z, real, on the
        # interleaved re/im of the c_z kept modes: z_inv weighs the mean 1,
        # and its imaginary part sin 0 = 0, as irfft drops it, and every
        # other mode 2; z_dz folds in i alpha; z_fwd carries the 1/n_z
        phase = (2.0 * np.pi / nx) * (np.outer(np.arange(nx), kept_x) % nx)
        self.x_inv = np.exp(1j * phase)
        self.x_dx = self.x_inv * (1j * self.box[0].ravel())
        self.x_fwd = np.conj(self.x_inv.T) / nx
        phase = (2.0 * np.pi / nz) * (np.outer(np.arange(cz), np.arange(nz)) % nz)
        cos, sin = np.cos(phase), np.sin(phase)
        weight = np.where(np.arange(cz) == 0, 1.0, 2.0)[:, None]
        self.z_inv = np.stack([weight * cos, -weight * sin], axis=1).reshape(2 * cz, nz)
        walpha = weight * self.box[2].reshape(cz, 1)
        self.z_dz = np.stack([-walpha * sin, -walpha * cos], axis=1).reshape(2 * cz, nz)
        self.z_fwd = np.stack([cos.T, -sin.T], axis=2).reshape(nz, 2 * cz) / nz
        # the y rows of one x-pass product: as many as keep its m n k within
        # _ONE_THREAD_MNK, so that it stays on one thread, and at least one
        self.y_block = max(1, _ONE_THREAD_MNK // (nx * (2 * cx - 1) * cz))
        # read-only u and G, kept for the last t asked: a step's ends, a linear run's start
        self.u_memo = lru_cache(maxsize=1)(lambda t: _read_only(self.u(t)))
        self.g_memo = lru_cache(maxsize=1)(lambda t: _read_only(self.g(t)))

    def u(self, t: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The transport velocity at t on the transforms' box, cut on y to the kept ranges."""
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
        block holds five buffers: the coefficients on the box, the lines
        between the x and z passes, and the three physical arrays of the
        product.  The seven views returned are, in order: the coefficients,
        whose zero padding persists, as rhs writes only the positions of
        packed modes and their alpha = 0 partners; the lines, which the z
        pass reads and writes as interleaved re/im; the physical arrays; and
        a box-shaped slot in the leading values of the second and of the
        third, where the y pass runs in place.  A box slot takes less than
        one physical array, so each array holds at most one.
        """
        nx, ny, nz = self.lattice.shape
        lines_shape = (nx, ny, self.cut[2])
        # one zeroed block, so the buffers leave memory together; a physical
        # array takes n/2 complex slots (every axis is even)
        n_box, n_lines = math.prod(self.box_shape), math.prod(lines_shape)
        n_phys = nx * ny * nz // 2
        block = np.zeros(n_box + n_lines + 3 * n_phys, dtype=np.complex128)
        coeffs, lines, *phys = np.split(block, np.cumsum([n_box, n_lines, n_phys, n_phys]))
        return (coeffs.reshape(self.box_shape), lines.reshape(lines_shape),
                *(p.view(np.float64).reshape(nx, ny, nz) for p in phys),
                *(p[:n_box].reshape(self.box_shape) for p in phys[1:]))

    def rhs(self, c: np.ndarray, u, work, out: np.ndarray | None = None) -> np.ndarray:
        """Packed -(u . grad theta) for packed c and symbols u on the box; mean mode zeroed.

        ``work`` is a ``workspace()`` of this core.  An inverse transform
        runs y, x, z: the y pass by ``numpy.fft`` in place in a box slot, the
        x pass by ``np.matmul`` with an x matrix into the lines, ``y_block``
        y rows per BLAS call, and the z pass by ``np.matmul`` with a z matrix
        into a physical array, one x plane per call.  The forward transform
        runs z, x, y back into a box slot.  d_x theta and d_z theta take
        ``x_dx`` and ``z_dz`` after one y pass of theta, so a call makes six
        ``numpy.fft`` calls, each over the box's (2 c_x - 1) c_z lines.  Every
        transform writes into ``work`` with ``out``, so the call allocates
        nothing the size of a transform.  The result is gathered into
        ``out``, a packed array that is not ``c``, when one is given.
        """
        ny, cy = self.lattice.ny, self.cut[1]
        coeffs, lines, adv, term, factor, term_box, factor_box = work
        flat = coeffs.reshape(-1)
        flat[self.box_mirror] = np.conj(c[self.plane])
        flat[self.box_idx] = c      # after the mirrors: the mean mode is its own

        # norm="forward": theta(x) = sum_f c(f) exp(i f.x) without scaling.
        # The y pass runs over the box's (2 c_x - 1) c_z lines, in place in a
        # box slot, from the coefficients times a symbol on the kept y
        # ranges; the rows between the ranges are the zeros it reads,
        # re-zeroed at each call.  The upper range starts at n-c+1, not
        # -(c-1), which is the whole axis for c = 1
        def y_pass(box, symbol):
            box[:, cy:ny - cy + 1] = 0.0
            np.multiply(symbol[:, :cy], coeffs[:, :cy], out=box[:, :cy])
            np.multiply(symbol[:, cy:], coeffs[:, ny - cy + 1:], out=box[:, ny - cy + 1:])
            return np.fft.ifft(box, axis=1, norm="forward", out=box)

        # the x pass takes y_block y rows per product, all full blocks in one
        # stacked np.matmul and a shorter last block in another, so that each
        # BLAS call stays on one thread
        def x_pass(matrix, src, dst):
            for a, b in zip(_row_blocks(src, self.y_block), _row_blocks(dst, self.y_block)):
                np.matmul(matrix, a, out=b)
            return dst

        # the x pass, then the z pass, one x plane per BLAS call, into phys
        def phys_into(phys, box, x=self.x_inv, z=self.z_inv):
            return np.matmul(x_pass(x, box, lines).view(np.float64), z, out=phys)

        # overflow here surfaces as a NumericalAbort from the stepper's
        # finiteness check rather than as a warning storm
        with np.errstate(over="ignore", invalid="ignore"):
            u1, u2, u3 = u
            # u1 d_x theta + u3 d_z theta + u2 d_y theta, formed in place in
            # that order; d_x theta and d_z theta share theta's y pass
            theta = np.fft.ifft(coeffs, axis=1, norm="forward", out=term_box)
            phys_into(adv, theta, x=self.x_dx)
            phys_into(factor, theta, z=self.z_dz)
            adv *= phys_into(term, y_pass(term_box, u1))
            factor *= phys_into(term, y_pass(term_box, u3))
            adv += factor
            phys_into(factor, y_pass(factor_box, u2))
            factor *= phys_into(term, y_pass(term_box, self.i_eta))
            adv += factor
            # the forward passes, z, x and y, end in term's box slot
            np.matmul(adv, self.z_fwd, out=lines.view(np.float64))
            spec = np.fft.fft(x_pass(self.x_fwd, lines, term_box), axis=1, norm="forward",
                              out=term_box)
            out = np.take(spec.reshape(-1), self.box_idx, out=out)
            np.negative(out, out=out)
        out[0] = 0.0
        return out


def _row_blocks(a: np.ndarray, rows: int) -> list[np.ndarray]:
    """Contiguous ``a`` (n, n_y, c_z) as matrices n x (rows c_z) over its y rows.

    The full blocks come as one stack, the shorter last block, if any, as a
    matrix of its own; either is left out when it would be empty.
    """
    n, ny, cz = a.shape
    full, flat = ny // rows * rows * cz, a.reshape(n, ny * cz)
    blocks = [flat[:, :full].reshape(n, -1, rows * cz).transpose(1, 0, 2)] if full else []
    return blocks + ([flat[:, full:]] if full < flat.shape[1] else [])


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
