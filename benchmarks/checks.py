"""Output checks for one CLI call per workload.

Each check reads the files a run left in its --out directory and returns the
list of failures, empty when the outputs are correct.  They use the
package's public readers (read_csv_columns, load_checkpoint, fit_loglog_slope,
w_nr, iota) on the files, never the run's in-memory state.
"""

from __future__ import annotations

import math
import os


def _columns(path) -> dict[str, list[float]]:
    from strata.storage import read_csv_columns

    return {name: [float(v) for v in vals]
            for name, vals in read_csv_columns(path).items()}


def _nonincreasing(values) -> bool:
    return all(b <= a for a, b in zip(values, values[1:]))


def check_nonlinear(out: str, horizon: float) -> list[str]:
    """Conservation, reality, finiteness, decay and the final checkpoint."""
    from strata.storage import CheckpointError, load_checkpoint

    fails = []
    try:
        cols = _columns(os.path.join(out, "nonlinear_diagnostics.csv"))
    except (OSError, ValueError) as exc:
        return [f"diagnostics CSV unreadable: {exc}"]
    for name, vals in cols.items():
        if not vals or not all(math.isfinite(v) for v in vals):
            fails.append(f"column {name} is empty or not finite")
    if fails:
        return fails
    theta = cols["theta_l2"]
    if not max(cols["mass_mode"]) < 1e-10 * max(theta):
        fails.append(f"mass_mode {max(cols['mass_mode']):.3e} not < 1e-10 * max theta_l2")
    if not max(cols["reality_err"]) < 1e-10:
        fails.append(f"reality_err {max(cols['reality_err']):.3e} not < 1e-10")
    if not _nonincreasing(theta):
        fails.append("theta_l2 increases between rows")
    try:
        final = load_checkpoint(os.path.join(out, "nonlinear_final.ckpt"))
    except (OSError, CheckpointError) as exc:
        return fails + [f"final checkpoint does not load: {exc}"]
    if not math.isclose(final.t, horizon, rel_tol=1e-12):
        fails.append(f"checkpoint t = {final.t!r}, horizon {horizon!r}")
    if final.field.l2() != theta[-1]:
        fails.append(f"checkpoint l2 {final.field.l2()!r} != last theta_l2 {theta[-1]!r}")
    return fails


def check_linear(out: str, rows: int = 101, window=(30.0, 100.0),
                 max_slope: float = -3.5) -> list[str]:
    """Row count, monotone theta_l2 and the inviscid-damping decay of u2."""
    from strata.toymodels import FitError, fit_loglog_slope

    try:
        cols = _columns(os.path.join(out, "linear_diagnostics.csv"))
    except (OSError, ValueError) as exc:
        return [f"diagnostics CSV unreadable: {exc}"]
    fails = []
    if len(cols["t"]) != rows:
        fails.append(f"{len(cols['t'])} rows, expected {rows}")
    if not _nonincreasing(cols["theta_l2"]):
        fails.append("theta_l2 increases between rows")
    try:
        slope = fit_loglog_slope(cols["t"], cols["u2_nonzero_l2"], window=window).exponent
    except FitError as exc:
        return fails + [f"u2_nonzero_l2 fit failed: {exc}"]
    if not slope <= max_slope:
        fails.append(f"u2_nonzero_l2 slope {slope:.3f} over {window} not <= {max_slope}")
    return fails


def check_weights_ratios(out: str, lemmas=("rNR", "ratioJ", "shortTime"),
                         c_star: float = 1.0) -> list[str]:
    """One finite row per lemma; the rNR constant recomputed at its worst tuple."""
    from strata.lattice import iota
    from strata.storage import read_csv_columns
    from strata.weights import WeightParams, w_nr

    try:
        cols = read_csv_columns(os.path.join(out, "weights_ratio_sweeps.csv"))
    except (OSError, ValueError) as exc:
        return [f"ratio CSV unreadable: {exc}"]
    if tuple(cols.get("lemma", [])) != tuple(lemmas):
        return [f"lemmas {cols.get('lemma')}, expected {list(lemmas)}"]
    fails = []
    for lemma, samples, const in zip(cols["lemma"], cols["samples"],
                                     cols["empirical_constant"]):
        if not (int(samples) > 0 and math.isfinite(float(const))):
            fails.append(f"{lemma}: samples {samples}, constant {const}")
    if "rNR" in lemmas and not fails:
        i = cols["lemma"].index("rNR")
        reported = float(cols["empirical_constant"][i])
        try:
            t, *f = (float(x) for x in cols["worst_tuple"][i].split())
            f1, f2 = f[:3], f[3:]
            if len(f2) != 3:
                raise ValueError(f"worst tuple has {1 + len(f)} entries, not 7")
        except ValueError as exc:
            return [f"rNR worst tuple unreadable: {exc}"]
        p = WeightParams(c_star=c_star)
        df = sum(abs(a - b) for a, b in zip(f1, f2))
        again = (w_nr(t, iota(*f1), p) / w_nr(t, iota(*f2), p)
                 / math.exp(p.mu * math.sqrt(df)))
        if not abs(again - reported) <= 1e-6 * abs(reported):
            fails.append(f"rNR constant {reported:.7g} != {again:.7g} recomputed")
    return fails
