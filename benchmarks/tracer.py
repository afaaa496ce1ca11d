"""In-process span tracer for one `strata.cli.main` call.

The tracer replaces public functions with timing wrappers at the place the
caller looks them up (a module global or a class attribute), records one span
per call and puts every original back on `uninstall`.  Spans live in flat
arrays (name id, start, end, parent, run id) because the weights workload makes
~10^5 calls to `log_w_k`; they are written out once, at the end.

`layer_metrics` turns the spans of one or more traced runs into the per-layer
metrics named in BENCHMARK.json.
"""

from __future__ import annotations

import json
import math
import os
import statistics
import time
from array import array

# (module, attribute path, span name, note kind).  Each entry is patched where
# the caller resolves it at call time; the note kind selects what is recorded
# besides the span (see _NOTES).
WRAPPED = [
    ("strata.cli", "compute_row", "diagnostics.compute_row", None),
    ("strata.cli", "write_csv", "storage.write_csv", None),
    ("strata.cli", "save_checkpoint", "storage.save_checkpoint", "file_bytes"),
    ("strata.cli", "ratio_lemma_sweep", "weights.ratio_lemma_sweep", "lemma"),
    ("strata.storage", "RunManifest.write", "storage.RunManifest.write", None),
    ("strata.simulate", "init_field", "simulate.init_field", None),
    ("strata.simulate", "step_linear", "simulate.step_linear", None),
    ("strata.simulate", "step_nonlinear", "simulate.step_nonlinear", None),
    ("strata.simulate", "nonlinear_rhs", "simulate.nonlinear_rhs", None),
    ("strata.simulate", "linear_decay_factors", "simulate.linear_decay_factors",
     "interval"),
    ("strata.simulate", "transport_symbol", "symbols.transport_symbol", "time"),
    ("strata.diagnostics", "velocity_symbol", "symbols.velocity_symbol", None),
    ("strata.diagnostics", "lattice_weights", "weights.lattice_weights", None),
    ("strata.diagnostics", "log_weighted_l2", "weights.log_weighted_l2", None),
    ("strata.weights", "log_weighted_l2", "weights.log_weighted_l2", None),
    ("strata.weights", "log_w_k", "weights.log_w_k", None),
    ("strata.weights", "LatticeWeights.log_w", "weights.LatticeWeights.log_w", None),
    ("strata.weights", "LatticeWeights.dlogw_dt", "weights.LatticeWeights.dlogw_dt",
     None),
    ("strata.lattice", "SpectralField.reality_defect",
     "lattice.SpectralField.reality_defect", None),
    ("strata.lattice", "Lattice.dealias_mask", "lattice.Lattice.dealias_mask",
     "kept_frac"),
    ("scipy.fft", "fftn", "fft.fftn", "fft_bytes"),
    ("scipy.fft", "ifftn", "fft.ifftn", "fft_bytes"),
]

ROOT = "cli.main"


def _note_file_bytes(args, kwargs, result):
    return os.path.getsize(args[0])


def _note_lemma(args, kwargs, result):
    return args[0]


def _note_interval(args, kwargs, result):
    return [args[1], args[2]]


def _note_time(args, kwargs, result):
    return args[0]


def _note_kept_frac(args, kwargs, result):
    return float(result.mean())


def _note_fft_bytes(args, kwargs, result):
    # computed from array sizes: what the transform reads plus what it writes
    return int(args[0].nbytes + result.nbytes)


_NOTES = {
    "file_bytes": _note_file_bytes,
    "lemma": _note_lemma,
    "interval": _note_interval,
    "time": _note_time,
    "kept_frac": _note_kept_frac,
    "fft_bytes": _note_fft_bytes,
}


def _resolve(module_name, attr_path):
    """(owner, attribute) for 'func' or 'Class.method' inside a module."""
    import importlib

    owner = importlib.import_module(module_name)
    *outer, attr = attr_path.split(".")
    for name in outer:
        owner = getattr(owner, name)
    if attr not in vars(owner):
        raise AttributeError(f"{module_name}.{attr_path} is not defined there")
    return owner, attr


class Tracer:
    """Span recorder; `install` patches WRAPPED, `uninstall` restores it."""

    def __init__(self, run_id: int = 0):
        self.run_id = run_id
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.run = array("i")
        self.notes: dict[str, list] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _nid(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def enter(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.run.append(self.run_id)
        self.end.append(math.nan)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def exit(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name: str, note=None):
        nid = self._nid(name)
        notes = self.notes.setdefault(name, []) if note else None
        enter, exit_ = self.enter, self.exit

        def traced(*args, **kwargs):
            idx = enter(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_(idx)
            if notes is not None:
                notes.append(note(args, kwargs, result))
            return result

        traced.__wrapped__ = fn
        traced.__span__ = name
        return traced

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        try:
            for module_name, attr_path, name, note_kind in WRAPPED:
                owner, attr = _resolve(module_name, attr_path)
                original = vars(owner)[attr]
                note = _NOTES[note_kind] if note_kind else None
                setattr(owner, attr, self.wrap(original, name, note))
                self._patches.append((owner, attr, original))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def run_main(self, argv: list[str]) -> int:
        """Call strata.cli.main(argv) under a root span with every wrapper installed."""
        import strata.cli

        self.install()
        try:
            idx = self.enter(self._nid(ROOT))
            try:
                return strata.cli.main(argv)
            finally:
                self.exit(idx)
        finally:
            self.uninstall()

    def spans(self) -> dict:
        """Spans and notes as plain lists, the format `write` stores."""
        return {
            "names": list(self.names),
            "name_id": self.name_id.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "parent": self.parent.tolist(),
            "run": self.run.tolist(),
            "notes": self.notes,
        }

    def write(self, path, extra: dict | None = None) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**self.spans(), **(extra or {})}, fh)


def installed_wrappers() -> list[str]:
    """Names in WRAPPED whose current binding is still a tracer wrapper."""
    left = []
    for module_name, attr_path, _, _ in WRAPPED:
        owner, attr = _resolve(module_name, attr_path)
        if hasattr(vars(owner)[attr], "__span__"):
            left.append(f"{module_name}.{attr_path}")
    return left


# --- per-layer metrics --------------------------------------------------------


def _pct(values, q):
    """q-th percentile, linear between order statistics; 0.0 for no values."""
    if not values:
        return 0.0
    vs = sorted(values)
    pos = (len(vs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(vs) - 1)
    return vs[lo] + (vs[hi] - vs[lo]) * (pos - lo)


def _ratio(num, den):
    return num / den if den else 0.0


class SpanStats:
    """Durations, self times and parent names of the spans of traced runs.

    `add` takes one span dump as written by `Tracer.write` (one CLI call,
    with the child's `import_s` and `weight_table` cache_info entries) so a
    large dump can be dropped once it is folded in.
    """

    def __init__(self):
        self.n_runs = 0
        self.dur: dict[str, list[float]] = {}
        self.self_t: dict[str, list[float]] = {}
        self.first: dict[str, list[float]] = {}
        self.parent_of: dict[str, list[str]] = {}
        self.notes: dict[str, list] = {}
        self.distinct: dict[str, int] = {}   # distinct notes within a run, summed
        self.root: list[float] = []
        self.top_level: list[float] = []
        self.run_extra: list[dict] = []

    def add(self, run: dict) -> None:
        self.n_runs += 1
        names = run["names"]
        nid, start, end, parent = run["name_id"], run["start"], run["end"], run["parent"]
        n = len(nid)
        dur = [end[i] - start[i] for i in range(n)]
        child_time = [0.0] * n
        for i in range(n):
            if parent[i] >= 0:
                child_time[parent[i]] += dur[i]
        seen = set()
        top = 0.0
        for i in range(n):
            name = names[nid[i]]
            if name == ROOT:
                self.root.append(dur[i])
                continue
            self.dur.setdefault(name, []).append(dur[i])
            self.self_t.setdefault(name, []).append(dur[i] - child_time[i])
            pname = names[nid[parent[i]]] if parent[i] >= 0 else ""
            self.parent_of.setdefault(name, []).append(pname)
            if name not in seen:
                seen.add(name)
                self.first.setdefault(name, []).append(dur[i])
            if pname == ROOT:
                top += dur[i]
        self.top_level.append(top)
        for name, values in run["notes"].items():
            self.notes.setdefault(name, []).extend(values)
            distinct = {tuple(v) if isinstance(v, list) else v for v in values}
            self.distinct[name] = self.distinct.get(name, 0) + len(distinct)
        self.run_extra.append({k: v for k, v in run.items()
                               if k not in ("names", "name_id", "start", "end",
                                            "parent", "run", "notes")})

    def ms(self, name):
        return [1e3 * d for d in self.dur.get(name, [])]

    def self_ms(self, name):
        return [1e3 * d for d in self.self_t.get(name, [])]

    def per_run(self, value):
        return _ratio(value, self.n_runs)

    def calls(self, name):
        return self.per_run(len(self.dur.get(name, [])))

    def total_s(self, name):
        return self.per_run(sum(self.dur.get(name, [])))

    def distinct_ratio(self, name):
        """Distinct noted arguments within a run over calls: useful over attempted."""
        return _ratio(self.distinct.get(name, 0), len(self.notes.get(name, [])))

    def share(self, name):
        return _ratio(sum(self.dur.get(name, [])), sum(self.root))


def layer_metrics(sp: SpanStats, samples: int = 0) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, {name: (value, unit)}, from the spans of traced runs.

    `samples` is the per-lemma sample count of a ratio sweep.
    """
    m: dict[str, tuple[float, str]] = {}

    def timing(name, *stats):
        ms = sp.ms(name)
        for stat in stats:
            if stat == "ms_p50":
                m[f"{name}.ms_p50"] = (_pct(ms, 50), "ms")
            elif stat == "ms_p90":
                m[f"{name}.ms_p90"] = (_pct(ms, 90), "ms")
            elif stat == "self_ms_p50":
                m[f"{name}.self_ms_p50"] = (_pct(sp.self_ms(name), 50), "ms")
            elif stat == "calls":
                m[f"{name}.calls"] = (sp.calls(name), "count")
            elif stat == "total_s":
                m[f"{name}.total_s"] = (sp.total_s(name), "s")
            elif stat == "ms":
                m[f"{name}.ms"] = (1e3 * sp.total_s(name), "ms")

    m["cli.import_s"] = (statistics.median(r["import_s"] for r in sp.run_extra), "s")
    kept = sp.notes.get("lattice.Lattice.dealias_mask", [])
    m["lattice.dealias_kept_frac"] = (statistics.median(kept) if kept else 0.0, "ratio")
    timing("lattice.SpectralField.reality_defect", "ms_p50", "calls")

    # FFTs attributed to a simulate.* parent span; others (reality_defect) are not
    fft_ms, fft_bytes = [], 0
    for name in ("fft.fftn", "fft.ifftn"):
        bytes_iter = iter(sp.notes.get(name, []))
        for d, pname in zip(sp.ms(name), sp.parent_of.get(name, [])):
            b = next(bytes_iter)
            if pname.startswith("simulate."):
                fft_ms.append(d)
                fft_bytes += b
    steps = (len(sp.dur.get("simulate.step_nonlinear", []))
             + len(sp.dur.get("simulate.step_linear", [])))
    m["simulate.fft.calls_per_step"] = (_ratio(len(fft_ms), steps), "count")
    m["simulate.fft.ms_p50"] = (_pct(fft_ms, 50), "ms")
    m["simulate.fft.total_s"] = (sp.per_run(sum(fft_ms) / 1e3), "s")
    m["simulate.fft.bytes_computed"] = (sp.per_run(fft_bytes), "B")

    timing("symbols.transport_symbol", "calls", "ms_p50", "total_s")
    m["symbols.transport_symbol.distinct_t_ratio"] = (
        sp.distinct_ratio("symbols.transport_symbol"), "ratio")
    timing("symbols.velocity_symbol", "ms_p50", "total_s")

    timing("simulate.step_nonlinear", "ms_p50", "ms_p90", "calls", "self_ms_p50")
    timing("simulate.nonlinear_rhs", "ms_p50", "calls", "self_ms_p50")
    timing("simulate.linear_decay_factors", "ms_p50", "calls", "total_s")
    m["simulate.linear_decay_factors.distinct_interval_ratio"] = (
        sp.distinct_ratio("simulate.linear_decay_factors"), "ratio")
    timing("simulate.step_linear", "ms_p50", "ms_p90", "calls", "total_s")
    timing("simulate.init_field", "ms")
    timing("diagnostics.compute_row", "ms_p50", "ms_p90", "calls", "self_ms_p50", "total_s")

    builds = sp.first.get("weights.lattice_weights", [])
    m["weights.lattice_weights.build_ms"] = (
        1e3 * statistics.median(builds) if builds else 0.0, "ms")
    timing("weights.LatticeWeights.log_w", "ms_p50")
    timing("weights.LatticeWeights.dlogw_dt", "ms_p50")
    timing("weights.log_weighted_l2", "ms_p50", "calls")

    sweep = "weights.ratio_lemma_sweep"
    lemmas = sp.notes.get(sweep, [])
    for lemma in ("rNR", "ratioJ", "shortTime"):
        us = [1e6 * d for d, lem in zip(sp.dur.get(sweep, []), lemmas) if lem == lemma]
        m[f"{sweep}.{lemma}.us_per_sample"] = (
            statistics.median(us) / samples if us and samples else 0.0, "us")
    m["weights.log_w_k.calls"] = (sp.calls("weights.log_w_k"), "count")
    m["weights.log_w_k.us_p50"] = (1e3 * _pct(sp.ms("weights.log_w_k"), 50), "us")
    info = [r["weight_table"] for r in sp.run_extra]
    hits = sum(i["hits"] for i in info)
    misses = sum(i["misses"] for i in info)
    m["weights.weight_table.misses"] = (sp.per_run(misses), "count")
    m["weights.weight_table.hit_ratio"] = (_ratio(hits, hits + misses), "ratio")

    timing("storage.write_csv", "ms")
    timing("storage.save_checkpoint", "ms")
    timing("storage.RunManifest.write", "ms")
    m["storage.checkpoint.bytes"] = (
        sp.per_run(sum(sp.notes.get("storage.save_checkpoint", []))), "B")

    for name in ("simulate.step_nonlinear", "simulate.step_linear",
                 "diagnostics.compute_row", sweep):
        m[f"{name}.share"] = (sp.share(name), "ratio")
    m["trace.coverage"] = (_ratio(sum(sp.top_level), sum(sp.root)), "ratio")
    return m
