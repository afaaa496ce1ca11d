"""Command-line entry point: every experiment is a subcommand.

    strata linear CONFIG        linear run, diagnostics CSV
    strata nonlinear CONFIG     nonlinear run, diagnostics CSV + checkpoints
    strata toy MODEL            toy-model reports (orr|zeromode|liftup|semigroup)
    strata weights ACTION       weight tables and lemma sweeps (table|totalgrowth|ratios)
    strata fit CSV              log-log slope fit on any emitted column

Exit codes: 0 success, 2 configuration/usage error, 3 numerical abort.
A command takes only the flags it reads: a run --seed, --out (or $STRATA_OUT)
and --quiet; a toy model or weights action its ``_TOY_ARGS`` or ``_WEIGHTS_ARGS``
entry, --out and --quiet; fit --quiet besides its own.

Every command but fit writes its files through one ``_RunRecord``: the
manifest comes first and lists in ``outputs`` each file written, CSVs,
checkpoints and plot script, also after a numerical abort.
"""

from __future__ import annotations

import argparse
import contextlib
import locale  # noqa: F401  (argparse's gettext loads it at main's first parser)
import math
import os
import sys
import time

import numpy as np

from . import __version__
from .config import ConfigError, SimConfig, default_config_text
from .diagnostics import DiagnosticRow, compute_row
from .simulate import NumericalAbort, run_states
from .storage import RunManifest, save_checkpoint, write_csv, read_csv_columns
from .toymodels import (
    FitError,
    fit_loglog_slope,
    liftup_growth,
    orr_toy_integrate,
    semigroup_bound_check,
    zero_mode_decay_bound,
)
from .weights import WeightParams, ratio_lemma_sweep, total_growth_check, weight_table

_EXIT_OK = 0
_EXIT_CONFIG = 2
_EXIT_NUMERIC = 3
_STAMP = "%Y-%m-%dT%H:%M:%S"    # a manifest's started and finished times

# the flags each toy model and weights action reads; its manifest records seed
# as the run's seed and the others under [config]
_TOY_ARGS = {"orr": ("k", "kappa"), "zeromode": ("tmax",), "liftup": ("tmax", "epsilon"),
             "semigroup": ("m",)}
_WEIGHTS_ARGS = {"table": ("cstar", "iota"), "totalgrowth": ("cstar", "iota_max"),
                 "ratios": ("cstar", "lemma", "samples", "seed")}
_FLAGS = {
    "k": dict(type=int, default=1, help="resonant wavenumber"),
    "kappa": dict(type=float, default=1.0, help="coupling strength"),
    "tmax": dict(type=float, default=1e3, help="time horizon"),
    "epsilon": dict(type=float, default=1e-3, help="amplitude"),
    "m": dict(type=float, nargs="+", default=[0.0, 1.5, 2.5, 3.0], help="moment exponents"),
    "cstar": dict(type=float, nargs="+", default=[1.0]),
    "iota": dict(type=float, default=10.0),
    "iota_max": dict(type=float, default=1e4),
    "lemma": dict(choices=["rNR", "ratioJ", "shortTime", "all"], default="all"),
    "samples": dict(type=int, default=100000),
    "seed": dict(type=int, default=0, help="sampling seed"),
    "out": dict(default=None, help="output directory (default $STRATA_OUT or .)"),
    "quiet": dict(action="store_true", help="suppress stdout summaries"),
}
# the test each value of a flag must pass, and its wording
_RANGES = {
    "k": (lambda v: 1 <= v <= 10, "lie in 1..10"),    # E(sqrt(100)), the orr sweep's least eta
    "kappa": (math.isfinite, "be finite"),
    "tmax": (lambda v: 0.0 < v < math.inf, "be positive and finite"),
    # within these bounds the lift-up envelope, eps^2 times 10.2..8001, is a normal float
    "epsilon": (lambda v: 1e-150 <= abs(v) <= 1e150, "satisfy 1e-150 <= |epsilon| <= 1e150"),
    "m": (lambda v: 0.0 <= v < math.inf, "be nonnegative and finite"),
    "cstar": (lambda v: 0.0 < v < math.inf, "be positive and finite"),
    # the table of |iota| has E(sqrt|iota|) intervals: at most 1e4 under this cap
    "iota": (lambda v: 1.0 < abs(v) <= 1e8, "satisfy 1 < |iota| <= 1e8"),
    "iota_max": (lambda v: 1.0 < v <= 1e8, "satisfy 1 < iota_max <= 1e8"),
    "samples": (lambda v: v >= 1, "be at least 1"),
    "seed": (lambda v: v >= 0, "be >= 0"),
}


def main(argv=None) -> int:
    args, unread = _build_parser().parse_known_args(argv)
    if unread:
        # refused with the usage of the command or kind that does not read them
        args.parser.error(f"unrecognized arguments: {' '.join(unread)}")
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"strata: config error: {exc}", file=sys.stderr)
        return _EXIT_CONFIG
    except FitError as exc:
        print(f"strata: fit error: {exc}", file=sys.stderr)
        return _EXIT_CONFIG
    except NumericalAbort as exc:
        print(f"strata: numerical abort: {exc}", file=sys.stderr)
        return _EXIT_NUMERIC
    except OSError as exc:
        # a missing or unusable path: no file to read, a file where a directory goes
        print(f"strata: {exc}", file=sys.stderr)
        return _EXIT_CONFIG


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="strata", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=f"strata {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    # no parser takes abbreviations: --iota would be --iota-max to totalgrowth
    def flags(p, names, func):
        for name in (*names, "out", "quiet"):
            p.add_argument("--" + name.replace("_", "-"), **_FLAGS[name])
        p.set_defaults(func=func, parser=p)

    for name in ("linear", "nonlinear"):
        p = sub.add_parser(name, help=f"{name} evolution run", allow_abbrev=False)
        p.add_argument("config", nargs="?", default=None, help="config file (key = value sections)")
        p.add_argument("--print-defaults", action="store_true",
                       help="print the default config and exit")
        p.add_argument("--seed", type=int, default=None, help="override the run seed")
        flags(p, (), _cmd_run)

    for name, dest, table, func, about in (
            ("toy", "model", _TOY_ARGS, _cmd_toy, "toy-model reports"),
            ("weights", "action", _WEIGHTS_ARGS, _cmd_weights, "weight tables and lemma sweeps")):
        kinds = sub.add_parser(name, help=about).add_subparsers(dest=dest, required=True)
        for kind, names in table.items():
            flags(kinds.add_parser(kind, allow_abbrev=False), names, func)

    p = sub.add_parser("fit", help="log-log slope fit of a CSV column", allow_abbrev=False)
    p.add_argument("csv")
    p.add_argument("--column", required=True)
    p.add_argument("--time-column", default="t")
    p.add_argument("--tmin", type=float, default=None)
    p.add_argument("--tmax", type=float, default=None)
    p.add_argument("--min-r2", type=float, default=0.99)
    p.add_argument("--quiet", **_FLAGS["quiet"])
    p.set_defaults(func=_cmd_fit, parser=p)

    return parser


def _say(args, msg: str) -> None:
    if not args.quiet:
        print(msg)


class _RunRecord:
    """The output directory and manifest of one command, written before any result.

    Each file written through the record is added to ``outputs`` in the order written.
    """

    def __init__(self, args, command: str, seed: int, config_text: str,
                 extra: dict | None = None):
        self.out = args.out or os.environ.get("STRATA_OUT") or "."
        self.name = f"{command}_manifest.ini"
        os.makedirs(self.out, exist_ok=True)
        self.manifest = RunManifest(command=command, seed=seed, version=__version__,
                                    config_text=config_text, extra=extra or {},
                                    started=time.strftime(_STAMP))
        self.manifest.write(os.path.join(self.out, self.name))

    def csv(self, name: str, header: list[str], rows) -> None:
        write_csv(os.path.join(self.out, name), header, rows, manifest_name=self.name)
        self.manifest.outputs.append(name)

    def checkpoint(self, name: str, state) -> None:
        save_checkpoint(os.path.join(self.out, name), state)
        self.manifest.outputs.append(name)

    def plot_script(self, csv_name: str, columns=None) -> None:
        tag = self.manifest.command
        with open(os.path.join(self.out, f"plot_{tag}.py"), "w", encoding="utf-8") as fh:
            fh.write(_PLOT_TEMPLATE.format(csv_name=csv_name, columns=columns or [],
                                           png_name=f"{tag}.png"))
        self.manifest.outputs.append(f"plot_{tag}.py")

    def finish(self, completed: bool = True) -> None:
        """Rewrite the manifest; only a completed run gets its ``finished`` stamp."""
        if completed:
            self.manifest.finished = time.strftime(_STAMP)
        self.manifest.write(os.path.join(self.out, self.name))


def _settings(section: str, args, names) -> str:
    """The ``[section]`` text of the named arguments but seed, lists space-joined."""
    lines = [f"[{section}]"]
    for name in names:
        val = getattr(args, name)
        if name != "seed":
            lines.append(f"{name} = {' '.join(map(str, val)) if isinstance(val, list) else val}")
    return "\n".join(lines) + "\n"


# --- run commands ---------------------------------------------------------


def _cmd_run(args) -> int:
    if args.print_defaults:
        if (args.config, args.seed, args.out) != (None, None, None):
            raise ConfigError("--print-defaults reads no config file, --seed or --out")
        print(default_config_text(), end="")
        return _EXIT_OK
    overrides = {"mode": args.command}
    if args.seed is not None:
        overrides["seed"] = args.seed
    cfg = (SimConfig.from_file(args.config, overrides) if args.config is not None
           else SimConfig.from_text("", overrides))
    csv_name = f"{cfg.mode}_diagnostics.csv"
    record = _RunRecord(args, cfg.mode, cfg.seed, cfg.to_text(),
                        {"sigma_min_resolved": f"{cfg.lattice.sigma_min_resolved():.6e}"})
    params = cfg.weight_params
    rows: list[DiagnosticRow] = []
    # two decimals, or as many as tell apart checkpoints closer than 0.01
    places = (max(2, math.ceil(-math.log10(cfg.checkpoint_every)))
              if cfg.checkpoint_every > 0 else 2)
    stamp = f"0{places + 6}.{places}f"
    try:
        # closed on every exit, so an interrupted run drops its workspace
        with contextlib.closing(run_states(cfg)) as states:
            for final, row, checkpoint in states:    # the end comes last
                if row:
                    rows.append(compute_row(final, params))
                if checkpoint:
                    record.checkpoint(f"{cfg.mode}_t{final.t:{stamp}}.ckpt", final)
        abort = None
    except NumericalAbort as exc:
        # without its traceback, whose frames hold the run's workspace
        final, abort = exc.state, exc.with_traceback(None)
    if rows or abort is None:
        record.csv(csv_name, DiagnosticRow.header(), [r.values() for r in rows])
    if abort is not None:
        # the partial rows and the offending state stay for inspection; finished stays empty
        if final is not None:
            record.checkpoint(f"{cfg.mode}_abort.ckpt", final)
        record.finish(completed=False)
        raise abort
    if cfg.mode == "nonlinear":
        record.checkpoint(f"{cfg.mode}_final.ckpt", final)
    record.plot_script(csv_name, ["u1_l2", "u2_zero_l2", "u2_nonzero_l2", "u3_l2"])
    record.finish()
    _say(args, f"{cfg.mode} run complete: t={final.t:g}, {len(rows)} rows -> {csv_name}")
    return _EXIT_OK


# --- toy models -----------------------------------------------------------


def _check_ranges(args) -> None:
    """Reject a flag value out of its range before any output is written."""
    for name, (test, wording) in _RANGES.items():
        val = getattr(args, name, None)     # None: the command has no such flag
        if val is not None and not all(map(test, val if isinstance(val, list) else [val])):
            raise ConfigError(f"--{name.replace('_', '-')} must {wording}, got {val}")


def _cmd_toy(args) -> int:
    _check_ranges(args)
    if args.model == "liftup" and args.tmax == 10.0:
        raise ConfigError("liftup needs --tmax != 10, its time grid's start")
    command = f"toy_{args.model}"
    record = _RunRecord(args, command, 0,
                        _settings("toy", args, ("model",) + _TOY_ARGS[args.model]))
    summary = []  # rows of (model, params, fitted_exponent, r2, constant)

    if args.model == "orr":
        etas = np.geomspace(100.0, 1e5, 13)
        header, rows = ["eta", "k", "kappa", "amp_resonant", "amp_nonresonant"], []
        for eta in etas:
            try:
                ar, anr = orr_toy_integrate(args.k, float(eta), args.kappa)
            except RuntimeError as exc:    # the integrator gave up; finished stays empty
                raise NumericalAbort(f"orr toy at eta={eta:g}: {exc}") from None
            rows.append([float(eta), args.k, args.kappa, ar, anr])
        fit = fit_loglog_slope(etas, [r[4] for r in rows], min_r2=0.99)
        summary.append(["orr", f"k={args.k} kappa={args.kappa:g}",
                        fit.exponent, fit.r2, rows[-1][4]])
        _say(args, f"orr toy: amp_nonresonant ~ eta^{fit.exponent:.3f} (r2={fit.r2:.5f})")

    elif args.model == "zeromode":
        header, rows = ["eta", "alpha", "sigma", "constant", "sup_weighted"], []
        for eta in range(0, 10):
            for alpha in range(1, 11):
                rep = zero_mode_decay_bound(float(eta), alpha, args.tmax)
                rows.append([eta, alpha, rep.sigma, rep.constant, rep.sup_weighted])
        cmax = max(r[3] for r in rows)
        summary.append(["zeromode", f"tmax={args.tmax:g} grid=10x10", "", "", cmax])
        _say(args, f"zero-mode decay: uniform constant {cmax:.3f} over {len(rows)} frequencies")

    elif args.model == "liftup":
        t_grid = np.geomspace(10.0, args.tmax, 60)
        etas = np.arange(0.5, 40.01, 0.25)
        alphas = range(1, 15)
        env, fit = liftup_growth(args.epsilon, etas, alphas, t_grid)
        header, rows = ["t", "envelope"], [[float(t), float(v)] for t, v in zip(t_grid, env)]
        summary.append(["liftup", f"epsilon={args.epsilon:g}",
                        fit.exponent, fit.r2, float(env[-1])])
        _say(args, f"lift-up envelope exponent: {fit.exponent:.4f} (r2={fit.r2:.5f})")

    else:  # semigroup
        grid = [(e, a) for e in range(2, 12) for a in range(1, 11)]
        header, rows = ["m", "constant", "spread"], []
        for m in args.m:
            try:
                rep = semigroup_bound_check(grid, m)
            except OverflowError as exc:    # finished stays empty
                raise NumericalAbort(f"semigroup toy at m={m:g}: {exc}") from None
            rows.append([m, rep.c_max, rep.spread])
            summary.append(["semigroup", f"m={m:g}", "", "", rep.c_max])
            _say(args, f"semigroup m={m}: C={rep.c_max:.4f}, spread={rep.spread:.3%}")

    record.csv(f"{command}.csv", header, rows)
    record.csv(f"{command}_summary.csv",
               ["model", "params", "fitted_exponent", "r2", "constant"], summary)
    record.plot_script(f"{command}.csv")
    record.finish()
    return _EXIT_OK


# --- weights --------------------------------------------------------------


def _cmd_weights(args) -> int:
    _check_ranges(args)
    record = _RunRecord(args, f"weights_{args.action}", vars(args).get("seed", 0),
                        _settings("weights", args, _WEIGHTS_ARGS[args.action]))
    rows = []

    if args.action == "table":
        name, header = f"weights_table_iota{args.iota:g}.csv", ["c_star", "t", "w_nr", "w_r"]
        for cs in args.cstar:
            table = weight_table(abs(args.iota), cs)
            ts = sorted(set(np.concatenate([
                table.t_ell, table.peaks,
                np.linspace(0.0, 2.2 * abs(args.iota), 45)]).tolist()))
            for t in ts:
                rows.append([cs, t, table.wnr(t), table.wr(t)])
        _say(args, f"weight table for iota={args.iota:g} -> {name}")

    elif args.action == "totalgrowth":
        name = "weights_totalgrowth.csv"
        header = ["c_star", "mu", "iota_max", "constant", "worst_iota", "passed"]
        for cs in args.cstar:
            rep = total_growth_check(args.iota_max, WeightParams(c_star=cs))
            rows.append([cs, rep.mu, rep.iota_max, rep.constant, rep.worst_iota,
                         int(rep.passed)])
            _say(args, f"total growth c_star={cs}: K={rep.constant:.4g} "
                       f"(worst iota {rep.worst_iota:.4g}) pass={rep.passed}")

    else:  # ratios
        name = "weights_ratio_sweeps.csv"
        header = ["lemma", "samples", "empirical_constant", "worst_tuple", "c_star"]
        lemmas = ["rNR", "ratioJ", "shortTime"] if args.lemma == "all" else [args.lemma]
        for lem in lemmas:
            for cs in args.cstar:
                rep = ratio_lemma_sweep(lem, args.samples, WeightParams(c_star=cs),
                                        seed=args.seed)
                rows.append(rep.csv_row() + [cs])
                _say(args, f"{lem} (c_star={cs}): constant {rep.empirical_constant:.4e} "
                           f"over {rep.samples_used} admissible samples")

    record.csv(name, header, rows)
    record.finish()
    return _EXIT_OK


# --- fit --------------------------------------------------------------


def _numeric_column(cols: dict, name: str, path: str) -> np.ndarray:
    try:
        return np.asarray([float(x) for x in cols[name]])
    except ValueError:
        raise ConfigError(f"column {name!r} in {path} is not numeric") from None


def _cmd_fit(args) -> int:
    if not math.isfinite(args.min_r2):
        raise ConfigError(f"--min-r2 must be finite, got {args.min_r2}")
    try:
        cols = read_csv_columns(args.csv)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if args.column not in cols:
        raise ConfigError(f"column {args.column!r} not in {args.csv} "
                          f"(have {sorted(cols)})")
    if args.time_column not in cols:
        raise ConfigError(f"time column {args.time_column!r} not in {args.csv}")
    t = _numeric_column(cols, args.time_column, args.csv)
    v = _numeric_column(cols, args.column, args.csv)
    window = None
    if args.tmin is not None or args.tmax is not None:
        window = (args.tmin if args.tmin is not None else float(np.min(t)),
                  args.tmax if args.tmax is not None else float(np.max(t)))
    fit = fit_loglog_slope(t, v, window=window,
                           min_r2=args.min_r2 if args.min_r2 > 0 else None)
    _say(args, f"{args.column} ~ t^{fit.exponent:.4f} over {fit.window} (r2={fit.r2:.6f})")
    print(f"{fit.exponent:.6f}")
    return _EXIT_OK


_PLOT_TEMPLATE = '''#!/usr/bin/env python3
"""Plot {csv_name} (auto-generated; the data stays in the CSV)."""
import csv

import matplotlib.pyplot as plt


def _is_num(s):
    try:
        float(s)
        return True
    except ValueError:
        return False


with open({csv_name!r}) as fh:
    rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
header, data = rows[0], rows[1:]
cols = {{name: [float(r[i]) for r in data] for i, name in enumerate(header)
        if all(_is_num(r[i]) for r in data)}}
t = cols.get("t", cols[next(iter(cols))])
names = {columns!r} or [n for n in cols if n != "t"]
for name in names:
    if name in cols and any(v > 0 for v in cols[name]):
        plt.loglog(t, cols[name], label=name)
plt.xlabel("t")
plt.legend()
plt.tight_layout()
plt.savefig({png_name!r}, dpi=150)
'''


if __name__ == "__main__":
    sys.exit(main())
