#!/usr/bin/env python3
"""Compare what a fixed set of strata commands writes at REV and in the working tree.

    python3 tools/same_outputs.py REV [--tolerance COLUMN=REL ...]

REV is checked out with ``git worktree add --detach`` into a temporary
directory, removed again at the end.  Each run of ``RUNS`` is made once with
REV's ``src`` and once with the working tree's, each time in an empty output
directory that also receives its exit status (``exit_status``) and stdout
(``stdout.txt``).  The two directories of a run are then compared:

- every file byte for byte, except a manifest (``*_manifest.ini``), whose
  ``started`` and ``finished`` stamps are masked (an empty ``finished``, the
  mark of an aborted run, stays empty);
- a manifest that differs, key by key: each key whose value differs, or
  that one side lacks, is the column ``SECTION.KEY`` (``run.finished``,
  ``config.mode``) with an infinite difference;
- a CSV that differs, column by column: the largest |a - b| / max(|a|, |b|)
  over its rows (0 where both are equal, inf where a value is not a number
  on one side only or the rows do not line up);
- a checkpoint that differs, by its time ``t`` (as a column) and by its
  ``coefficients``: max |a - b| over the largest |a| or |b|.

``--tolerance COLUMN=REL`` states an intended change: a difference of at
most REL in a column whose name matches the shell pattern COLUMN (checkpoint
coefficients are the column ``coefficients``) is accepted; REL may be
``inf``, which accepts any change, a manifest key's too.  Where several
patterns match, the smallest REL holds; where none does, it is 0.  The table
is printed in Markdown.  Exit status 0 when every difference is accepted, 1
otherwise, 2 when REV cannot be checked out.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import fnmatch
import math
import os
import re
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

_CLI = "import sys; from strata.cli import main; sys.exit(main(sys.argv[1:]))"
# float.hex of Gevrey norms of one initial field, at a few radii and times
_GEVREY = """
from strata.config import SimConfig
from strata.simulate import init_field
from strata.weights import gevrey_log_norm
cfg = SimConfig(nx=16, ny=32, nz=16, epsilon=1e-3, seed=5)
field, p = init_field(cfg).field, cfg.weight_params
for sigma in p.sigmas:
    for t in (0.0, 1.0, 10.0, 100.0):
        print(sigma, t, float.hex(gevrey_log_norm(field, sigma, t, p)))
"""
_DESK = "[run]\nepsilon = 1e-3\ndt = 0.1\nt_end = 2\noutput_every = 1\n[init]\nrecipe = random\n"
_SMALL = "[lattice]\nnx = 8\nny = 16\nnz = 8\n"
_NONLINEAR = "[run]\nepsilon = 0.5\ndt = 0.1\nt_end = 2\noutput_every = 0.1\n"
_SMALL_NONLINEAR = _SMALL + _NONLINEAR

# name, strata arguments (or a script's), config file text; --quiet and --out
# are added to every strata command
RUNS = [
    ("desk_seed5", ["nonlinear", "--seed", "5"], _DESK),
    ("desk_seed7", ["nonlinear", "--seed", "7"], _DESK),
    ("small_checkpoints", ["nonlinear"],
     _SMALL + "[run]\nepsilon = 0.5\ndt = 0.1\nt_end = 5\noutput_every = 0.5\n"
     "checkpoint_every = 0.5\n"),
    ("small_dealias_0.8", ["nonlinear"], _SMALL_NONLINEAR + "dealias = 0.8\n"),
    ("small_dealias_1.0", ["nonlinear"], _SMALL_NONLINEAR + "dealias = 1.0\n"),
    ("small_ly_7.5", ["nonlinear"], _SMALL_NONLINEAR.replace("[run]", "ly = 7.5\n[run]")),
    ("small_s_0.75", ["nonlinear"], _SMALL_NONLINEAR + "[weights]\ns = 0.75\n"),
    # a transforms' box one index wide on x (one x row between its ranges), on y
    # (the rest of the axis between them) and on z (the mean alone)
    ("cut1_x_2x16x8", ["nonlinear"],
     "[lattice]\nnx = 2\nny = 16\nnz = 8\n" + _NONLINEAR + "dealias = 1.0\n"),
    ("cut1_y_8x2x8", ["nonlinear"], "[lattice]\nnx = 8\nny = 2\nnz = 8\n" + _NONLINEAR),
    ("cut1_z_8x16x2", ["nonlinear"], "[lattice]\nnx = 8\nny = 16\nnz = 2\n" + _NONLINEAR),
    # n_y = 22 in the x pass's blocks of 8 y rows: two and a shorter one of 6
    ("ragged_y_32x22x32", ["nonlinear"], "[lattice]\nnx = 32\nny = 22\nnz = 32\n" + _NONLINEAR),
    ("multimode_16x32x16", ["nonlinear"],
     "[lattice]\nnx = 16\nny = 32\nnz = 16\n[run]\nepsilon = 1e-2\ndt = 0.1\nt_end = 2\n"
     "output_every = 0.5\n[init]\nrecipe = multimode\n"),
    ("abort_epsilon_1e140", ["nonlinear"], _SMALL + "[run]\nepsilon = 1e140\nt_end = 2\n"),
    ("linear_default", ["linear"], None),
    ("linear_small_output_0.3", ["linear"], _SMALL + "[run]\noutput_every = 0.3\n"),
    ("weights_ratios", ["weights", "ratios"], None),
    ("toy_orr", ["toy", "orr"], None),
    ("toy_zeromode", ["toy", "zeromode"], None),
    ("toy_liftup", ["toy", "liftup"], None),
    ("toy_semigroup", ["toy", "semigroup"], None),
    ("gevrey_log_norm_hex", None, None),
]

_CHECKPOINT_HEAD = struct.Struct("<4sIIIIdd")    # magic, version, nx, ny, nz, ly, t
_STAMP = re.compile(rb"^(started|finished) = .+$", re.MULTILINE)


def make_run(tree: Path, name: str, args: list[str] | None, config: str | None,
             out: Path) -> None:
    """Make one run of ``RUNS`` with ``tree``'s ``src``, writing into the new directory ``out``."""
    out.mkdir(parents=True)
    if args is None:
        cmd = [sys.executable, "-c", _GEVREY]
    else:
        cmd = [sys.executable, "-c", _CLI, *args]
        if config is not None:
            (out.parent / f"{name}.ini").write_text(config, encoding="utf-8")
            cmd.append(str(out.parent / f"{name}.ini"))
        cmd += ["--quiet", "--out", "."]
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    proc = subprocess.run(cmd, cwd=out, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, timeout=600)
    (out / "stdout.txt").write_bytes(proc.stdout)
    (out / "exit_status").write_text(f"{proc.returncode}\n", encoding="utf-8")
    if proc.returncode not in (0, 3):
        sys.stderr.write(f"{name} in {tree} exited {proc.returncode}:\n"
                         f"{proc.stderr.decode(errors='replace')}")


def _rel(a: float, b: float) -> float:
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    return abs(a - b) / max(abs(a), abs(b)) if math.isfinite(a) and math.isfinite(b) else math.inf


def _csv_columns(data: bytes) -> dict[str, list[str]]:
    rows = list(csv.reader(ln for ln in data.decode().splitlines() if not ln.startswith("#")))
    header, body = rows[0] if rows else [], rows[1:]
    return {name: [row[i] if i < len(row) else "" for row in body]
            for i, name in enumerate(header)}


def _csv_diffs(old: bytes, new: bytes) -> dict[str, float]:
    a, b = _csv_columns(old), _csv_columns(new)
    diffs = {}
    for name in dict.fromkeys([*a, *b]):
        col_a, col_b = a.get(name), b.get(name)
        if col_a is None or col_b is None or len(col_a) != len(col_b):
            diffs[name] = math.inf
            continue
        worst = 0.0
        for x, y in zip(col_a, col_b):
            if x != y:
                try:
                    worst = max(worst, _rel(float(x), float(y)))
                except ValueError:
                    worst = math.inf
        diffs[name] = worst
    return diffs


def _checkpoint_diffs(old: bytes, new: bytes) -> dict[str, float]:
    if min(len(old), len(new)) < _CHECKPOINT_HEAD.size:
        return {"coefficients": math.inf}
    (*head_a, t_a), (*head_b, t_b) = (_CHECKPOINT_HEAD.unpack_from(d) for d in (old, new))
    if head_a != head_b or len(old) != len(new):
        return {"t": _rel(t_a, t_b), "coefficients": math.inf}
    a, b = (np.frombuffer(d, dtype="<c16", offset=_CHECKPOINT_HEAD.size) for d in (old, new))
    diff = float(np.max(np.abs(a - b), initial=0.0))
    scale = max(float(np.max(np.abs(c), initial=0.0)) for c in (a, b))
    return {"t": _rel(t_a, t_b), "coefficients": diff / scale if diff else 0.0}


def _manifest_diffs(old: bytes, new: bytes) -> dict[str, float]:
    parsed = []
    for data in (old, new):
        parser = configparser.ConfigParser(interpolation=None)
        try:
            parser.read_string(data.decode())
        except (configparser.Error, UnicodeDecodeError):
            return {"bytes": math.inf}
        parsed.append({f"{section}.{key}": value for section in parser.sections()
                       for key, value in parser.items(section)})
    a, b = parsed
    return {key: math.inf for key in dict.fromkeys([*a, *b]) if a.get(key) != b.get(key)}


def compare_dirs(old: Path, new: Path) -> list[tuple[str, str, float]]:
    """``(file, column, largest relative difference)`` for each difference of ``new`` from ``old``.

    A file on one side only is one row with an infinite difference, and so is
    any differing file that is not a CSV, a checkpoint or a parsable manifest,
    in the column ``bytes``.
    """
    rows = []
    names_a = {p.name for p in old.iterdir()}
    names_b = {p.name for p in new.iterdir()}
    for name in sorted(names_a | names_b):
        if name not in names_a or name not in names_b:
            rows.append((name, "missing in " + ("old" if name in names_b else "new"), math.inf))
            continue
        a, b = (old / name).read_bytes(), (new / name).read_bytes()
        if name.endswith("_manifest.ini"):
            a, b = _STAMP.sub(rb"\1 = <stamp>", a), _STAMP.sub(rb"\1 = <stamp>", b)
        if a == b:
            continue
        if name.endswith(".csv"):
            diffs = _csv_diffs(a, b)
        elif name.endswith(".ckpt"):
            diffs = _checkpoint_diffs(a, b)
        elif name.endswith("_manifest.ini"):
            diffs = _manifest_diffs(a, b)
        else:
            diffs = {"bytes": math.inf}
        # bytes that differ where every value is equal (say -0.0 and 0.0) show as 0
        rows += [(name, column, rel) for column, rel in diffs.items() if rel] or [
            (name, "bytes, values equal", 0.0)]
    return rows


def tolerance_of(column: str, tolerances: dict[str, float]) -> float:
    """The smallest tolerance whose pattern matches ``column``; 0 where none does."""
    return min((rel for pattern, rel in tolerances.items()
                if fnmatch.fnmatchcase(column, pattern)), default=0.0)


def _parse_tolerance(text: str) -> tuple[str, float]:
    pattern, _, rel = text.rpartition("=")
    try:
        value = float(rel)
    except ValueError:
        value = math.nan
    if not pattern or not 0.0 <= value <= math.inf:
        raise argparse.ArgumentTypeError(f"expected COLUMN=REL with REL >= 0, got {text!r}")
    return pattern, value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", help="the git revision to compare the working tree with")
    parser.add_argument("--tolerance", type=_parse_tolerance, action="append", default=[],
                        metavar="COLUMN=REL", help="accept a relative difference up to REL")
    args = parser.parse_args(argv)
    tolerances = dict(args.tolerance)
    repo = Path(subprocess.run(["git", "rev-parse", "--show-toplevel"], capture_output=True,
                               text=True, check=True, cwd=Path(__file__).parent).stdout.strip())
    with tempfile.TemporaryDirectory(prefix="same_outputs_") as tmp:
        base = Path(tmp)
        checkout = base / "rev"
        if subprocess.run(["git", "worktree", "add", "--quiet", "--detach", str(checkout),
                           args.rev], cwd=repo).returncode:
            return 2
        try:
            for name, run_args, config in RUNS:
                for side, tree in (("old", checkout), ("new", repo)):
                    make_run(tree, name, run_args, config, base / side / name)
        finally:
            subprocess.run(["git", "worktree", "remove", "--force", str(checkout)], cwd=repo,
                           check=True)
        print(f"old: {args.rev}, new: the working tree\n")
        print("| run | file | column | largest relative difference | tolerance |")
        print("|---|---|---|---|---|")
        accepted = True
        for name, _, _ in RUNS:
            old, new = base / "old" / name, base / "new" / name
            rows = compare_dirs(old, new)
            if not rows:
                print(f"| {name} | all {len(list(new.iterdir()))} files | | identical | |")
            for file, column, rel in rows:
                tol = tolerance_of(column, tolerances)
                accepted &= rel <= tol
                print(f"| {name} | {file} | {column} | {rel:.2g} | {tol:.2g}"
                      f"{'' if rel <= tol else ' (exceeded)'} |")
    print(f"\n{'every difference within its tolerance' if accepted else 'DIFFERENCES'}")
    return 0 if accepted else 1


if __name__ == "__main__":
    sys.exit(main())
