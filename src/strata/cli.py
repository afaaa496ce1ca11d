"""Command-line entry point: every experiment is a subcommand.

    strata linear CONFIG        linear run, diagnostics CSV
    strata nonlinear CONFIG     nonlinear run, diagnostics CSV + checkpoints
    strata toy MODEL            toy-model reports (orr|zeromode|liftup|semigroup)
    strata weights ACTION       weight tables and lemma sweeps (table|totalgrowth|ratios)
    strata fit CSV              log-log slope fit on any emitted column

Exit codes: 0 success, 2 configuration/usage error, 3 numerical abort.
All commands honor --out (or $STRATA_OUT), --seed, --quiet.
"""

from __future__ import annotations

import argparse
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
    except FileNotFoundError as exc:
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
        p.add_argument("--threads", type=int, default=None, help="cap FFT worker threads")
        common(p)
        p.set_defaults(func=_cmd_run, mode=name)

    p = sub.add_parser("toy", help="toy-model reports")
    p.add_argument("model", choices=["orr", "zeromode", "liftup", "semigroup"])
    p.add_argument("--kappa", type=float, default=1.0, help="orr: coupling strength")
    p.add_argument("--k", type=int, default=1, help="orr: resonant wavenumber")
    p.add_argument("--tmax", type=float, default=1e3, help="zeromode/liftup horizon")
    p.add_argument("--epsilon", type=float, default=1e-3, help="liftup amplitude")
    p.add_argument("--m", type=float, nargs="+", default=[0.0, 1.5, 2.5, 3.0],
                   help="semigroup moment exponents")
    common(p)
    p.set_defaults(func=_cmd_toy)

    p = sub.add_parser("weights", help="weight tables and lemma sweeps")
    p.add_argument("action", choices=["table", "totalgrowth", "ratios"])
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


def _outdir(args) -> str:
    out = args.out or os.environ.get("STRATA_OUT") or "."
    os.makedirs(out, exist_ok=True)
    return out


def _say(args, msg: str) -> None:
    if not getattr(args, "quiet", False):
        print(msg)


def _start_manifest(args, command: str, seed: int, config_text: str,
                    outputs: list[str], extra: dict | None = None):
    out = _outdir(args)
    manifest = RunManifest(command=command, seed=seed, version=__version__,
                           config_text=config_text, outputs=outputs,
                           extra=extra or {})
    manifest.stamp_start()
    path = os.path.join(out, RunManifest.name_for(command))
    manifest.write(path)
    return manifest, path


# --- run commands ---------------------------------------------------------


def _cmd_run(args) -> int:
    if args.print_defaults:
        print(default_config_text(), end="")
        return _EXIT_OK
    overrides: dict = {"mode": args.mode}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.threads is not None:
        overrides["threads"] = args.threads
    if args.config is not None:
        cfg = SimConfig.from_file(args.config, overrides)
    else:
        cfg = SimConfig.from_text("", overrides)

    out = _outdir(args)
    csv_name = f"{args.mode}_diagnostics.csv"
    extra = {"sigma_min_resolved": f"{cfg.lattice.sigma_min_resolved():.6e}"}
    manifest, manifest_path = _start_manifest(
        args, args.mode, cfg.seed, cfg.to_text(), [csv_name], extra)

    params = cfg.weight_params
    rows: list[DiagnosticRow] = []

    def on_row(state):
        rows.append(compute_row(state, params))

    def on_checkpoint(state):
        name = f"{args.mode}_t{state.t:08.2f}.ckpt"
        save_checkpoint(os.path.join(out, name), state)
        manifest.outputs.append(name)

    try:
        final = run_simulation(cfg, on_row=on_row, on_checkpoint=on_checkpoint)
    except NumericalAbort as exc:
        if rows:
            write_csv(os.path.join(out, csv_name), DiagnosticRow.header(),
                      [r.values() for r in rows], manifest_name=RunManifest.name_for(args.mode))
        if exc.state is not None:
            save_checkpoint(os.path.join(out, f"{args.mode}_abort.ckpt"), exc.state)
        raise

    write_csv(os.path.join(out, csv_name), DiagnosticRow.header(),
              [r.values() for r in rows], manifest_name=RunManifest.name_for(args.mode))
    final_name = f"{args.mode}_final.ckpt"
    if args.mode == "nonlinear":
        save_checkpoint(os.path.join(out, final_name), final)
        manifest.outputs.append(final_name)
    _emit_plot_script(out, args.mode, csv_name,
                      ["u1_l2", "u2_zero_l2", "u2_nonzero_l2", "u3_l2"])
    manifest.stamp_finish()
    manifest.write(manifest_path)
    _say(args, f"{args.mode} run complete: t={final.t:g}, {len(rows)} rows -> {csv_name}")
    return _EXIT_OK


# --- toy models -----------------------------------------------------------


def _cmd_toy(args) -> int:
    out = _outdir(args)
    seed = args.seed if args.seed is not None else 0
    name = f"toy_{args.model}.csv"
    summary_name = f"toy_{args.model}_summary.csv"
    manifest, mpath = _start_manifest(args, f"toy_{args.model}", seed,
                                      f"[toy]\nmodel = {args.model}\n",
                                      [name, summary_name])
    mn = RunManifest.name_for(f"toy_{args.model}")
    summary = []  # rows of (model, params, fitted_exponent, r2, constant)

    if args.model == "orr":
        etas = np.geomspace(100.0, 1e5, 13)
        rows = []
        for eta in etas:
            ar, anr = orr_toy_integrate(args.k, float(eta), args.kappa)
            rows.append([float(eta), args.k, args.kappa, ar, anr])
        fit = fit_loglog_slope(etas, [r[4] for r in rows], min_r2=0.99)
        write_csv(os.path.join(out, name),
                  ["eta", "k", "kappa", "amp_resonant", "amp_nonresonant"], rows,
                  manifest_name=mn)
        summary.append(["orr", f"k={args.k} kappa={args.kappa:g}",
                        fit.exponent, fit.r2, rows[-1][4]])
        _say(args, f"orr toy: amp_nonresonant ~ eta^{fit.exponent:.3f} (r2={fit.r2:.5f})")

    elif args.model == "zeromode":
        rows = []
        for eta in range(0, 10):
            for alpha in range(1, 11):
                rep = zero_mode_decay_bound(float(eta), alpha, args.tmax)
                rows.append([eta, alpha, rep.sigma, rep.constant, rep.sup_weighted])
        cmax = max(r[3] for r in rows)
        write_csv(os.path.join(out, name),
                  ["eta", "alpha", "sigma", "constant", "sup_weighted"], rows,
                  manifest_name=mn)
        summary.append(["zeromode", f"tmax={args.tmax:g} grid=10x10", "", "", cmax])
        _say(args, f"zero-mode decay: uniform constant {cmax:.3f} over {len(rows)} frequencies")

    elif args.model == "liftup":
        t_grid = np.geomspace(10.0, args.tmax, 60)
        etas = np.arange(0.5, 40.01, 0.25)
        alphas = range(1, 15)
        env, fit = liftup_growth(args.epsilon, etas, alphas, t_grid)
        rows = [[float(t), float(v)] for t, v in zip(t_grid, env)]
        write_csv(os.path.join(out, name), ["t", "envelope"], rows, manifest_name=mn)
        summary.append(["liftup", f"epsilon={args.epsilon:g}",
                        fit.exponent, fit.r2, float(env[-1])])
        _say(args, f"lift-up envelope exponent: {fit.exponent:.4f} (r2={fit.r2:.5f})")

    else:  # semigroup
        grid = [(e, a) for e in range(2, 12) for a in range(1, 11)]
        rows = []
        for m in args.m:
            rep = semigroup_bound_check(grid, m)
            rows.append([m, rep.c_max, rep.spread])
            summary.append(["semigroup", f"m={m:g}", "", "", rep.c_max])
            _say(args, f"semigroup m={m}: C={rep.c_max:.4f}, spread={rep.spread:.3%}")
        write_csv(os.path.join(out, name), ["m", "constant", "spread"], rows,
                  manifest_name=mn)

    write_csv(os.path.join(out, summary_name),
              ["model", "params", "fitted_exponent", "r2", "constant"], summary,
              manifest_name=mn)
    _emit_plot_script(out, f"toy_{args.model}", name, None)
    manifest.stamp_finish()
    manifest.write(mpath)
    return _EXIT_OK


# --- weights --------------------------------------------------------------


def _check_weights_args(args) -> None:
    """Reject out-of-range weights arguments before any output is written."""
    if not all(cs > 0.0 for cs in args.cstar):
        raise ConfigError(f"--cstar values must be positive, got {args.cstar}")
    if args.action == "table" and not 1.0 < abs(args.iota) < math.inf:
        raise ConfigError(f"--iota must satisfy 1 < |iota| < inf, got {args.iota}")
    if args.action == "totalgrowth" and not 1.0 < args.iota_max < math.inf:
        raise ConfigError(f"--iota-max must satisfy 1 < iota_max < inf, got {args.iota_max}")
    if args.action == "ratios" and args.samples < 1:
        raise ConfigError(f"--samples must be at least 1, got {args.samples}")


def _cmd_weights(args) -> int:
    _check_weights_args(args)
    out = _outdir(args)
    seed = args.seed if args.seed is not None else 0
    settings = f"[weights]\ncstar = {' '.join(map(str, args.cstar))}\n"

    if args.action == "table":
        name = f"weights_table_iota{args.iota:g}.csv"
        manifest, mpath = _start_manifest(args, "weights_table", seed,
                                          f"{settings}iota = {args.iota}\n", [name])
        rows = []
        for cs in args.cstar:
            table = weight_table(abs(args.iota), cs)
            ts = sorted(set(np.concatenate([
                table.t_ell, table.peaks,
                np.linspace(0.0, 2.2 * abs(args.iota), 45)]).tolist()))
            for t in ts:
                rows.append([cs, t, table.wnr(t), table.wr(t)])
        write_csv(os.path.join(out, name), ["c_star", "t", "w_nr", "w_r"], rows,
                  manifest_name=RunManifest.name_for("weights_table"))
        _say(args, f"weight table for iota={args.iota:g} -> {name}")

    elif args.action == "totalgrowth":
        name = "weights_totalgrowth.csv"
        manifest, mpath = _start_manifest(args, "weights_totalgrowth", seed,
                                          f"{settings}iota_max = {args.iota_max}\n", [name])
        rows = []
        for cs in args.cstar:
            rep = total_growth_check(args.iota_max, WeightParams(c_star=cs))
            rows.append([cs, rep.mu, rep.iota_max, rep.constant, rep.worst_iota,
                         int(rep.passed)])
            _say(args, f"total growth c_star={cs}: K={rep.constant:.4g} "
                       f"(worst iota {rep.worst_iota:.4g}) pass={rep.passed}")
        write_csv(os.path.join(out, name),
                  ["c_star", "mu", "iota_max", "constant", "worst_iota", "passed"],
                  rows, manifest_name=RunManifest.name_for("weights_totalgrowth"))

    else:  # ratios
        name = "weights_ratio_sweeps.csv"
        manifest, mpath = _start_manifest(
            args, "weights_ratios", seed,
            f"{settings}lemma = {args.lemma}\nsamples = {args.samples}\n", [name])
        lemmas = ["rNR", "ratioJ", "shortTime"] if args.lemma == "all" else [args.lemma]
        rows = []
        for lem in lemmas:
            for cs in args.cstar:
                rep = ratio_lemma_sweep(lem, args.samples, WeightParams(c_star=cs), seed=seed)
                rows.append(rep.csv_row() + [cs])
                _say(args, f"{lem} (c_star={cs}): constant {rep.empirical_constant:.4e} "
                           f"over {rep.samples_used} admissible samples")
        write_csv(os.path.join(out, name),
                  ["lemma", "samples", "empirical_constant", "worst_tuple", "c_star"], rows,
                  manifest_name=RunManifest.name_for("weights_ratios"))

    manifest.stamp_finish()
    manifest.write(mpath)
    return _EXIT_OK


# --- fit --------------------------------------------------------------


def _numeric_column(cols: dict, name: str, path: str) -> np.ndarray:
    try:
        return np.asarray([float(x) for x in cols[name]])
    except ValueError:
        raise ConfigError(f"column {name!r} in {path} is not numeric") from None


def _cmd_fit(args) -> int:
    cols = read_csv_columns(args.csv)
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


def _emit_plot_script(out: str, tag: str, csv_name: str, columns) -> None:
    script = _PLOT_TEMPLATE.format(csv_name=csv_name, columns=columns or [],
                                   png_name=f"{tag}.png")
    with open(os.path.join(out, f"plot_{tag}.py"), "w", encoding="utf-8") as fh:
        fh.write(script)


if __name__ == "__main__":
    sys.exit(main())
