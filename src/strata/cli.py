"""Command-line entry point: every experiment is a subcommand.

    strata linear CONFIG        linear run, diagnostics CSV
    strata nonlinear CONFIG     nonlinear run, diagnostics CSV + checkpoints
    strata toy MODEL            toy-model reports (orr|zeromode|liftup|semigroup)
    strata weights ACTION       weight tables and lemma sweeps (table|totalgrowth|ratios)
    strata fit CSV              log-log slope fit on any emitted column

Exit codes: 0 success, 2 configuration/usage error, 3 numerical abort.
All commands honor --out (or $STRATA_OUT), --seed, --quiet.

Every command but fit writes its files through one ``_RunRecord``: the
manifest comes first and lists in ``outputs`` each file written, CSVs,
checkpoints and plot script, also after a numerical abort.
"""

from __future__ import annotations

import argparse
import locale  # noqa: F401  (argparse's gettext loads it at main's first parser)
import math
import os
import sys

import numpy as np

from . import __version__
from .config import ConfigError, SimConfig, default_config_text
from .diagnostics import DiagnosticRow, compute_row
from .simulate import NumericalAbort, run_simulation
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

# the arguments each toy model and weights action reads, recorded in its manifest
_TOY_ARGS = {"orr": ("k", "kappa"), "zeromode": ("tmax",), "liftup": ("tmax", "epsilon"),
             "semigroup": ("m",)}
_WEIGHTS_ARGS = {"table": ("iota",), "totalgrowth": ("iota_max",),
                 "ratios": ("lemma", "samples")}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
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

    def common(p):
        p.add_argument("--out", default=None, help="output directory (default $STRATA_OUT or .)")
        p.add_argument("--seed", type=int, default=None, help="override the run seed")
        p.add_argument("--quiet", action="store_true", help="suppress stdout summaries")

    for name in ("linear", "nonlinear"):
        p = sub.add_parser(name, help=f"{name} evolution run")
        p.add_argument("config", nargs="?", default=None, help="config file (key = value sections)")
        p.add_argument("--print-defaults", action="store_true",
                       help="print the default config and exit")
        common(p)
        p.set_defaults(func=_cmd_run, mode=name)

    p = sub.add_parser("toy", help="toy-model reports")
    p.add_argument("model", choices=list(_TOY_ARGS))
    p.add_argument("--kappa", type=float, default=1.0, help="orr: coupling strength")
    p.add_argument("--k", type=int, default=1, help="orr: resonant wavenumber")
    p.add_argument("--tmax", type=float, default=1e3, help="zeromode/liftup horizon")
    p.add_argument("--epsilon", type=float, default=1e-3, help="liftup amplitude")
    p.add_argument("--m", type=float, nargs="+", default=[0.0, 1.5, 2.5, 3.0],
                   help="semigroup moment exponents")
    common(p)
    p.set_defaults(func=_cmd_toy)

    p = sub.add_parser("weights", help="weight tables and lemma sweeps")
    p.add_argument("action", choices=list(_WEIGHTS_ARGS))
    p.add_argument("--iota", type=float, default=10.0)
    p.add_argument("--iota-max", type=float, default=1e4)
    p.add_argument("--cstar", type=float, nargs="+", default=[1.0])
    p.add_argument("--samples", type=int, default=100000)
    p.add_argument("--lemma", choices=["rNR", "ratioJ", "shortTime", "all"], default="all")
    common(p)
    p.set_defaults(func=_cmd_weights)

    p = sub.add_parser("fit", help="log-log slope fit of a CSV column")
    p.add_argument("csv")
    p.add_argument("--column", required=True)
    p.add_argument("--time-column", default="t")
    p.add_argument("--tmin", type=float, default=None)
    p.add_argument("--tmax", type=float, default=None)
    p.add_argument("--min-r2", type=float, default=0.99)
    common(p)
    p.set_defaults(func=_cmd_fit)

    return parser


def _say(args, msg: str) -> None:
    if not getattr(args, "quiet", False):
        print(msg)


class _RunRecord:
    """The output directory and manifest of one command, written before any result.

    Each file written through the record is added to ``outputs`` in the order written.
    """

    def __init__(self, args, command: str, seed: int, config_text: str,
                 extra: dict | None = None):
        self.out = args.out or os.environ.get("STRATA_OUT") or "."
        self.name = RunManifest.name_for(command)
        os.makedirs(self.out, exist_ok=True)
        self.manifest = RunManifest(command=command, seed=seed, version=__version__,
                                    config_text=config_text, extra=extra or {})
        self.manifest.stamp_start()
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
            self.manifest.stamp_finish()
        self.manifest.write(os.path.join(self.out, self.name))


def _settings(section: str, args, names) -> str:
    """The ``[section]`` text of the named arguments, lists space-joined."""
    lines = [f"[{section}]"]
    for name in names:
        val = getattr(args, name)
        lines.append(f"{name} = {' '.join(map(str, val)) if isinstance(val, list) else val}")
    return "\n".join(lines) + "\n"


# --- run commands ---------------------------------------------------------


def _cmd_run(args) -> int:
    if args.print_defaults:
        print(default_config_text(), end="")
        return _EXIT_OK
    overrides = {"mode": args.mode}
    if args.seed is not None:
        overrides["seed"] = args.seed
    cfg = (SimConfig.from_file(args.config, overrides) if args.config is not None
           else SimConfig.from_text("", overrides))
    csv_name = f"{args.mode}_diagnostics.csv"
    record = _RunRecord(args, args.mode, cfg.seed, cfg.to_text(),
                        {"sigma_min_resolved": f"{cfg.lattice.sigma_min_resolved():.6e}"})
    params = cfg.weight_params
    rows: list[DiagnosticRow] = []

    def on_row(state):
        rows.append(compute_row(state, params))

    # two decimals, or as many as tell apart checkpoints closer than 0.01
    places = (max(2, math.ceil(-math.log10(cfg.checkpoint_every)))
              if cfg.checkpoint_every > 0 else 2)

    def on_checkpoint(state):
        record.checkpoint(f"{args.mode}_t{state.t:0{places + 6}.{places}f}.ckpt", state)

    try:
        final, abort = run_simulation(cfg, on_row=on_row, on_checkpoint=on_checkpoint), None
    except NumericalAbort as exc:
        final, abort = exc.state, exc
    if rows or abort is None:
        record.csv(csv_name, DiagnosticRow.header(), [r.values() for r in rows])
    if abort is not None:
        # the partial rows and the offending state stay for inspection; finished stays empty
        if final is not None:
            record.checkpoint(f"{args.mode}_abort.ckpt", final)
        record.finish(completed=False)
        raise abort
    if args.mode == "nonlinear":
        record.checkpoint(f"{args.mode}_final.ckpt", final)
    record.plot_script(csv_name, ["u1_l2", "u2_zero_l2", "u2_nonzero_l2", "u3_l2"])
    record.finish()
    _say(args, f"{args.mode} run complete: t={final.t:g}, {len(rows)} rows -> {csv_name}")
    return _EXIT_OK


# --- toy models -----------------------------------------------------------


def _check_toy_args(args) -> None:
    """Reject out-of-range toy arguments before any output is written."""
    if args.seed is not None and args.seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {args.seed}")
    if not 1 <= args.k <= 10:    # E(sqrt(100)), the smallest eta of the orr sweep
        raise ConfigError(f"--k must lie in 1..10, got {args.k}")
    if not (math.isfinite(args.kappa) and math.isfinite(args.epsilon)):
        raise ConfigError(f"--kappa and --epsilon must be finite, "
                          f"got {args.kappa}, {args.epsilon}")
    if not 0.0 < args.tmax < math.inf:
        raise ConfigError(f"--tmax must be positive and finite, got {args.tmax}")
    if not all(0.0 <= m < math.inf for m in args.m):
        raise ConfigError(f"--m values must be nonnegative and finite, got {args.m}")


def _cmd_toy(args) -> int:
    _check_toy_args(args)
    command = f"toy_{args.model}"
    record = _RunRecord(args, command, args.seed or 0,
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


def _check_weights_args(args) -> None:
    """Reject out-of-range weights arguments before any output is written."""
    if args.seed is not None and args.seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {args.seed}")
    if not all(0.0 < cs < math.inf for cs in args.cstar):
        raise ConfigError(f"--cstar values must be positive and finite, got {args.cstar}")
    # the table of |iota| has E(sqrt|iota|) intervals: at most 1e4 under this cap
    if args.action == "table" and not 1.0 < abs(args.iota) <= 1e8:
        raise ConfigError(f"--iota must satisfy 1 < |iota| <= 1e8, got {args.iota}")
    if args.action == "totalgrowth" and not 1.0 < args.iota_max <= 1e8:
        raise ConfigError(f"--iota-max must satisfy 1 < iota_max <= 1e8, got {args.iota_max}")
    if args.action == "ratios" and args.samples < 1:
        raise ConfigError(f"--samples must be at least 1, got {args.samples}")


def _cmd_weights(args) -> int:
    _check_weights_args(args)
    record = _RunRecord(args, f"weights_{args.action}", args.seed or 0,
                        _settings("weights", args, ("cstar",) + _WEIGHTS_ARGS[args.action]))
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
                                        seed=args.seed or 0)
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
