"""Memory guards: what a run holds, counted by tracemalloc or seen through weak
references, with no timing.

numpy reports its array buffers to tracemalloc, so the traced peak of a call
is the most its new arrays took at once.  Each bound is stated in arrays of
the desk lattice's packed size (18 743 complex values) or its full size
(131 072), next to the figure measured when it was set.
"""

import dataclasses
import tracemalloc
import weakref
from functools import cached_property, lru_cache

import numpy as np
import pytest

from strata import cli, diagnostics, simulate
from strata.config import SimConfig
from strata.lattice import Lattice
from strata.simulate import init_field, step_nonlinear
from strata.storage import save_checkpoint
from strata.weights import gevrey_log_norm

DESK = SimConfig(epsilon=1e-3, dt=0.1, t_end=0.2, output_every=0.1)


def _traced_peak(fn):
    """Bytes of the most memory ``fn``'s new allocations held at once."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _packed_bytes(core):
    return core.full_idx.size * 16


def test_a_step_with_a_workspace_holds_only_packed_size_arrays(monkeypatch):
    # a fresh core, whose memos are empty, so the step evaluates u and G at
    # both ends, the most a step holds; G at t = 0 forms its lasting G parts
    core = simulate._Core(DESK.lattice, DESK.dealias)
    monkeypatch.setattr(simulate, "_core", lambda lat, dealias: core)
    core.g(0.0)
    state = init_field(DESK)
    work = core.workspace()
    peak = _traced_peak(lambda: step_nonlinear(state, DESK.dt, DESK.dealias, work))
    # measured: 10.8 packed-size arrays (13.4 with k4 in a buffer of its own
    # and the midpoint's G, u and damping kept to the end; 16.6 with the
    # stages formed out of place); one lattice-sized complex array is 7.0 of them
    assert peak <= 11.3 * _packed_bytes(core)


def test_a_workspace_is_one_block_of_five_buffers():
    # the coefficients, the y pass's lines and the three physical arrays; the
    # other passes' buffers lie in their leading slots
    core = simulate._core(DESK.lattice, DESK.dealias)
    work = core.workspace()
    block = work[0].base
    assert all(a.base is block for a in work)
    # measured: 14.5 packed-size arrays (20.1 with dedicated buffers for the
    # x pass's input and output and the y pass's input)
    assert block.nbytes <= 15 * _packed_bytes(core)


def test_a_nonlinear_run_with_rows_holds_its_workspace_and_one_step(monkeypatch):
    # a fresh core, made inside the trace with its lasting G parts and index
    # arrays, and an empty row plan, so the figure does not hang on which
    # tests ran before
    monkeypatch.setattr(simulate, "_core", lru_cache(maxsize=8)(simulate._Core))
    monkeypatch.setattr(diagnostics, "_support", lru_cache(maxsize=1)(diagnostics._RowPlan))
    cfg = dataclasses.replace(DESK, mode="nonlinear")
    rows = []
    peak = _traced_peak(lambda: simulate.run_simulation(
        cfg, on_row=lambda st: rows.append(diagnostics.compute_row(st, cfg.weight_params))))
    assert len(rows) == 3
    # measured: 38.2 packed-size arrays (46.4 with the 20.1 of an eight-buffer
    # workspace and a step that held 13.4)
    assert peak <= 40 * _packed_bytes(simulate._core(cfg.lattice, cfg.dealias))


def test_a_checkpoint_holds_one_lattice_sized_array(tmp_path):
    state = init_field(DESK)
    lat = state.core.lattice
    peak = _traced_peak(lambda: save_checkpoint(tmp_path / "run.ckpt", state))
    # measured: the unpacked field and one packed-size array (the conjugates
    # unpack writes) plus 416 bytes; four lattice-sized copies before
    assert peak <= lat.size * 16 + 2 * _packed_bytes(state.core)
    assert state._field is None


def test_a_packed_state_keeps_no_field(tmp_path, monkeypatch):
    # a field read from a packed state, or unpacked for its checkpoint, is
    # freed with the statement that reads it
    cfg = SimConfig(nx=8, ny=16, nz=8, epsilon=1e-3, t_end=0.2, output_every=0.1,
                    mode="nonlinear")
    states = simulate.run_states(cfg)
    next(states)
    st, _, _ = next(states)
    states.close()
    assert st.core is not None
    # the reference is taken outside an assert, whose rewriting keeps its operands
    read = weakref.ref(st.field.coeffs)
    assert read() is None
    unpacked = []
    unpack = simulate._Core.unpack

    def watched(core, packed):
        out = unpack(core, packed)
        unpacked.append(weakref.ref(out))
        return out

    monkeypatch.setattr(simulate._Core, "unpack", watched)
    save_checkpoint(tmp_path / "run.ckpt", st)
    read = weakref.ref(st.field.coeffs)
    assert len(unpacked) == 2 and all(ref() is None for ref in unpacked)
    assert read() is None


def test_a_run_keeps_no_lattice_sized_array_on_its_lattice():
    # a lattice no other test builds, so this call makes its core
    cfg = SimConfig(nx=8, ny=16, nz=8, ly=7.5, epsilon=1e-3)
    state = init_field(cfg)
    assert simulate._core(cfg.lattice, cfg.dealias) is state.core
    diagnostics.compute_row(state, cfg.weight_params)
    assert max(np.size(v) for v in vars(state.core.lattice).values()) <= max(cfg.lattice.shape)


def test_a_lattice_keeps_nothing_larger_than_an_axis():
    # a run's start, a row and a Gevrey norm of the whole field on the desk
    # lattice, then every cached property the lattice has
    state = init_field(DESK)
    lat = state.core.lattice
    diagnostics.compute_row(state, DESK.weight_params)
    gevrey_log_norm(state.field, 1.0, 0.0, DESK.weight_params)
    for name, attr in vars(Lattice).items():
        if isinstance(attr, cached_property):
            getattr(lat, name)
    assert state.field.lattice is lat
    assert max(np.size(v) for v in vars(lat).values()) <= max(lat.shape)


def test_an_aborted_run_drops_its_workspace_before_its_checkpoint(tmp_path, monkeypatch):
    blocks = []
    make = simulate._Core.workspace

    def workspace(core):
        work = make(core)
        blocks.append(weakref.ref(work[0].base))
        return work

    live_at_save = []

    def save(path, state):
        live_at_save.append([block() is not None for block in blocks])
        save_checkpoint(path, state)

    monkeypatch.setattr(simulate._Core, "workspace", workspace)
    monkeypatch.setattr(cli, "save_checkpoint", save)
    cfg = tmp_path / "run.ini"
    cfg.write_text("[lattice]\nnx = 8\nny = 16\nnz = 8\n"
                   "[run]\nepsilon = 1e140\ndt = 1.0\nt_end = 50.0\n")
    assert cli.main(["nonlinear", str(cfg), "--out", str(tmp_path / "out"), "--quiet"]) == 3
    assert live_at_save == [[False]]          # the abort checkpoint, after the workspace


def _watch_workspaces(monkeypatch):
    """Weak references to the block of each workspace a core makes from now on."""
    blocks = []
    make = simulate._Core.workspace

    def workspace(core):
        work = make(core)
        blocks.append(weakref.ref(work[0].base))
        return work

    monkeypatch.setattr(simulate._Core, "workspace", workspace)
    return blocks


def _small_run_config(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[lattice]\nnx = 8\nny = 16\nnz = 8\n[init]\ninit_kmax = 2\n"
                   "[run]\noutput_every = 0.3\nt_end = 2.0\ncheckpoint_every = 0.5\n")
    return str(cfg)


def test_an_interrupted_run_drops_its_workspace(tmp_path, monkeypatch):
    blocks = _watch_workspaces(monkeypatch)
    rows = []

    def row(state, params):
        if len(rows) == 2:
            raise KeyboardInterrupt
        rows.append(diagnostics.compute_row(state, params))

    monkeypatch.setattr(cli, "compute_row", row)
    out = str(tmp_path / "out")
    with pytest.raises(KeyboardInterrupt) as interrupt:
        cli.main(["nonlinear", _small_run_config(tmp_path), "--out", out, "--quiet"])
    # the interrupt, still held, has a traceback through the CLI's frame
    # but not the workspace
    assert interrupt.type is KeyboardInterrupt and len(rows) == 2
    assert len(blocks) == 1 and blocks[0]() is None


def test_a_completed_run_drops_its_workspace_before_the_end_checkpoints(tmp_path, monkeypatch):
    blocks = _watch_workspaces(monkeypatch)
    live_at_save = []

    def save(path, state):
        live_at_save.append((state.t, [block() is not None for block in blocks]))
        save_checkpoint(path, state)

    monkeypatch.setattr(cli, "save_checkpoint", save)
    out = str(tmp_path / "out")
    assert cli.main(["nonlinear", _small_run_config(tmp_path), "--out", out, "--quiet"]) == 0
    # live through the steps; gone at the end's periodic checkpoint and the final one
    assert live_at_save == [(0.5, [True]), (1.0, [True]), (1.5, [True]),
                            (2.0, [False]), (2.0, [False])]


def test_a_run_keeps_no_reference_to_its_start_state():
    cfg = SimConfig(nx=8, ny=16, nz=8, epsilon=1e-3, t_end=1.0, mode="nonlinear")
    states = simulate.run_states(cfg)
    state, _, _ = next(states)
    start = weakref.ref(state.packed)
    del state
    next(states)
    assert start() is None
    states.close()
