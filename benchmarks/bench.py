"""Benchmark for strata: three CLI workloads, end-to-end time and memory, traced layers.

    python3 benchmarks/bench.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Workloads (each a `strata` CLI call with `--seed N` and its own empty `--out`):

    nonlinear_desk   strata nonlinear, criterion-7 config cut to t_end = 2
    linear_default   strata linear with every default (T = 100, 101 rows)
    weights_ratios   strata weights ratios, all lemmas, c_star = 1, 25000 samples

Every call runs in a fresh interpreter (child.py), one at a time, and its
outputs are checked (checks.py).  With --trace 0 the run first makes set-up
probes (interpreter start plus `import strata`), then calls the workload
until --seconds is used up, and reports medians of

    setup_s      launch of the child to entry into strata.cli.main
    wall_s       time inside strata.cli.main, output writing included
    peak_rss_mb  the child's own peak RSS, from its os.wait4 rusage

The two times are given at a fixed reference speed: each child samples its
own speed while it runs (child.py), because a shared host's speed can drift
by almost 2x within seconds; the clock readings are printed and recorded too.

With --trace 1 it alternates untraced and traced calls; the traced ones
record spans around the package's public functions (tracer.py) and give the
per-layer metrics.  The last line of stdout is one JSON object with `correct`,
`attempted`, `failed` and `metrics`.  The host record, the samples and the
metrics also go to .bench_runs/ at the root of the checkout.  --smoke shrinks
every workload (8x16x8 lattice, short horizon, 300 samples) for the
benchmark's own tests.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = ROOT / ".bench_runs"
sys.path.insert(0, str(SRC))

import checks  # noqa: E402
from tracer import SpanStats, layer_metrics  # noqa: E402

SETUP_PROBES = 3
HARD_LIMIT_S = 165.0      # every run ends well inside the 180 s the caller allows
NONLINEAR_HORIZON = 2.0
RATIO_SAMPLES = 25_000
# child.SpeedSampler tasks on the reference host, a 2.1 GHz Xeon: numpy, Python
SPEED_REF_S = {"numpy": 0.00027, "python": 0.00030}
LEMMAS = ("rNR", "ratioJ", "shortTime")

_SMOKE_LATTICE = "[lattice]\nnx = 8\nny = 16\nnz = 8\n"


@dataclass(frozen=True)
class Workload:
    name: str
    command: tuple[str, ...]   # strata argv before --seed/--quiet/--out
    config: str | None         # config file text, passed as the first argument
    speed: str                 # speed task, numpy or python, that wall_s is scaled by
    samples: int = 0           # ratio-sweep samples per lemma
    horizon: float = 0.0       # nonlinear t_end

    def argv(self, run_dir: Path, seed: int, out: Path) -> list[str]:
        args = list(self.command)
        if self.config is not None:
            path = run_dir / f"{self.name}.ini"
            path.write_text(self.config, encoding="utf-8")
            args.append(str(path))
        return args + ["--seed", str(seed), "--quiet", "--out", str(out)]

    def check(self, out: Path) -> list[str]:
        if self.name == "nonlinear_desk":
            return checks.check_nonlinear(str(out), self.horizon)
        if self.name == "linear_default":
            return checks.check_linear(str(out))
        return checks.check_weights_ratios(str(out), LEMMAS, c_star=1.0)


def workloads(smoke: bool = False) -> dict[str, Workload]:
    horizon = 1.0 if smoke else NONLINEAR_HORIZON
    nonlinear = ("[run]\nepsilon = 1e-3\ndt = 0.1\n"
                 f"t_end = {horizon}\noutput_every = {0.5 if smoke else 1.0}\n"
                 "[init]\nrecipe = random\n")
    if smoke:
        nonlinear = _SMOKE_LATTICE + nonlinear + "init_kmax = 2\n"
    samples = 300 if smoke else RATIO_SAMPLES
    # The array workloads are scaled by the numpy task, the scalar sweep by the
    # Python one: across host speed changes each tracked its own kind of work
    # best (spread of wall_s over 5-6 runs: linear 2% with numpy, 6% with
    # Python; weights 10% with Python, 21% with numpy).
    return {
        "nonlinear_desk": Workload("nonlinear_desk", ("nonlinear",), nonlinear, "numpy",
                                   horizon=horizon),
        "linear_default": Workload("linear_default", ("linear",),
                                   _SMOKE_LATTICE if smoke else None, "numpy"),
        "weights_ratios": Workload(
            "weights_ratios",
            ("weights", "ratios", "--samples", str(samples), "--cstar", "1",
             "--lemma", "all"), None, "python", samples=samples),
    }


# --- host record --------------------------------------------------------------


def _git_revision() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref = (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def host_record() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "git_revision": _git_revision(),
        "loadavg_start": os.getloadavg(),
    }


# --- children -----------------------------------------------------------------


def at_reference_speed(seconds: float, inside: list, around: list, task: str) -> float:
    """Seconds an interval of a child would take at the reference speed.

    `inside` are the child's speed samples (start, numpy s, Python s) taken
    during the interval, `around` those taken right next to it.  The time the
    samples inside took is removed, and the rest is scaled by the median over
    all of them of reference / duration of `task`.
    """
    col = 1 if task == "numpy" else 2
    spent = sum(s[1] + s[2] for s in inside)
    speed = statistics.median(SPEED_REF_S[task] / s[col] for s in inside + around)
    return (seconds - spent) * speed


@dataclass
class Child:
    ran: bool              # exited 0 and left its timing record
    ok: bool = False       # ran and its outputs passed the workload's check
    setup_s: float = 0.0
    wall_s: float = 0.0
    rss_mb: float = 0.0
    raw_setup_s: float = 0.0   # setup_s and wall_s as the clock read them
    raw_wall_s: float = 0.0
    elapsed_s: float = 0.0
    problems: tuple[str, ...] = ()


def run_child(run_dir: Path, tag: str, strata_argv: list[str] | None,
              timeout: float, spans: Path | None = None, speed: str = "numpy") -> Child:
    """Launch child.py, reap it with os.wait4 for its own rusage, read its record."""
    result = run_dir / f"{tag}.json"
    cmd = [sys.executable, str(HERE / "child.py"), str(result)]
    if spans is not None:
        cmd += ["--trace", str(spans)]
    if strata_argv:
        cmd += ["--", *strata_argv]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    killed = False
    with open(run_dir / f"{tag}.log", "wb") as log:
        launch = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT,
                                stdin=subprocess.DEVNULL, env=env, cwd=run_dir)
        try:
            while True:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                if not killed and time.perf_counter() - launch > timeout:
                    proc.kill()
                    killed = True
                time.sleep(0.02)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        proc.returncode = os.waitstatus_to_exitcode(status)
    elapsed = time.perf_counter() - launch
    if killed:
        return Child(False, elapsed_s=elapsed, problems=(f"killed after {timeout:.0f} s",))
    if proc.returncode != 0:
        tail = (run_dir / f"{tag}.log").read_text(errors="replace")[-2000:]
        return Child(False, elapsed_s=elapsed,
                     problems=(f"exit code {proc.returncode}: {tail}",))
    record = json.loads(result.read_text())
    samples = record["speed_samples"]
    enter = record["enter"]
    start, exit_ = record.get("start", enter), record.get("exit", enter)
    after_enter = next(s for s in samples if s[0] >= enter)
    setup = [s for s in samples if s[0] < enter]
    main = [s for s in samples if start <= s[0] < exit_]
    return Child(True, True, rss_mb=usage.ru_maxrss / 1024.0, elapsed_s=elapsed,
                 raw_setup_s=enter - launch, raw_wall_s=exit_ - start,
                 setup_s=at_reference_speed(enter - launch, setup, [after_enter], "python"),
                 wall_s=at_reference_speed(exit_ - start, main, [after_enter, samples[-1]],
                                           speed))


def run_workload(wl: Workload, run_dir: Path, tag: str, seed: int, timeout: float,
                 spans: Path | None = None) -> Child:
    out = run_dir / f"{tag}_out"
    out.mkdir()
    child = run_child(run_dir, tag, wl.argv(run_dir, seed, out), timeout, spans, wl.speed)
    if child.ran:
        problems = wl.check(out)
        if problems:
            child.ok, child.problems = False, tuple(problems)
    shutil.rmtree(out)
    return child


# --- the run ------------------------------------------------------------------


def _median_or_none(values):
    return statistics.median(values) if values else None


class Budget:
    """Start another call only while it is expected to end inside --seconds."""

    def __init__(self, seconds: float, started: float):
        self.seconds = seconds
        self.started = started
        self.hard_end = started + HARD_LIMIT_S
        self.durations: list[float] = []

    def more(self) -> bool:
        if not self.durations:
            return True
        now = time.perf_counter()
        return now - self.started + statistics.median(self.durations) <= self.seconds

    def timeout(self) -> float:
        return max(1.0, self.hard_end - time.perf_counter())


def measure(wl: Workload, run_dir: Path, seed: int, seconds: float,
            started: float, log) -> tuple[dict, list[Child], dict]:
    """Set-up probes, then timed calls of the workload; no wrappers anywhere."""
    budget = Budget(seconds, started)
    probes = []
    for i in range(SETUP_PROBES):
        probe = run_child(run_dir, f"probe{i}", None, budget.timeout())
        if not probe.ran:
            raise RuntimeError(f"set-up probe failed: {probe.problems[0]}")
        probes.append(probe)
    calls: list[Child] = []
    while budget.more():
        child = run_workload(wl, run_dir, f"call{len(calls)}", seed, budget.timeout())
        calls.append(child)
        budget.durations.append(child.elapsed_s)
        log(f"call {len(calls)}: ok={child.ok} setup {child.setup_s:.3f} s "
            f"wall {child.wall_s:.3f} s (at reference speed; clock read "
            f"{child.raw_setup_s:.3f} s, {child.raw_wall_s:.3f} s) rss {child.rss_mb:.1f} MB"
            + (f" problems: {child.problems}" if child.problems else ""))
        if not child.ran:
            break
    ran = [c for c in calls if c.ran]
    samples = {"setup_s": [c.setup_s for c in probes + ran],
               "wall_s": [c.wall_s for c in ran],
               "peak_rss_mb": [c.rss_mb for c in ran],
               "raw_setup_s": [c.raw_setup_s for c in probes + ran],
               "raw_wall_s": [c.raw_wall_s for c in ran]}
    units = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
    metrics = {name: (_median_or_none(samples[name]), unit) for name, unit in units.items()}
    return metrics, calls, samples


def trace(wl: Workload, run_dir: Path, seed: int, seconds: float,
          started: float, log) -> tuple[dict, list[Child], dict]:
    """Alternate untraced and traced calls; per-layer metrics from the spans."""
    budget = Budget(seconds, started)
    stats = SpanStats()
    calls: list[Child] = []
    walls: dict[str, list[float]] = {"untraced_wall_s": [], "traced_wall_s": []}
    while budget.more():
        t0 = time.perf_counter()
        plain = run_workload(wl, run_dir, f"plain{stats.n_runs}", seed, budget.timeout())
        calls.append(plain)
        if not plain.ran:
            break
        spans = run_dir / "spans.json"
        traced = run_workload(wl, run_dir, f"traced{stats.n_runs}", seed,
                              budget.timeout(), spans)
        calls.append(traced)
        if not traced.ran:
            break
        with open(spans, encoding="utf-8") as fh:
            stats.add(json.load(fh))
        os.replace(spans, RUNS / f"{wl.name}_spans.json")
        walls["untraced_wall_s"].append(plain.wall_s)
        walls["traced_wall_s"].append(traced.wall_s)
        budget.durations.append(time.perf_counter() - t0)
        log(f"pair {stats.n_runs}: wall untraced {plain.wall_s:.3f} s, "
            f"traced {traced.wall_s:.3f} s (at reference speed)")
    if not stats.n_runs:
        return {}, calls, {}
    metrics = layer_metrics(stats, wl.samples)
    plain, traced = (statistics.median(v) for v in walls.values())
    metrics["trace.overhead_frac"] = ((traced - plain) / plain, "ratio")
    metrics["ops_failed_frac"] = (sum(not c.ok for c in calls) / len(calls), "ratio")
    return metrics, calls, walls


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=["nonlinear_desk", "linear_default", "weights_ratios"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny lattice, short horizon, few samples (for tests)")
    args = parser.parse_args(argv)

    # a terminated run raises SystemExit, so run_child kills and reaps its child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "strata" / "cli.py").is_file():
        print(f"bench: no strata sources under {SRC}", file=sys.stderr)
        return 2
    started = time.perf_counter()
    wl = workloads(args.smoke)[args.workload]
    RUNS.mkdir(exist_ok=True)
    run_dir = RUNS / f"{wl.name}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    run_dir.mkdir()
    host = host_record()
    print(f"host: {json.dumps(host)}", flush=True)

    def log(msg):
        print(f"{wl.name}: {msg}", flush=True)

    try:
        # warm-up probe: byte-compiles the sources on a fresh checkout; not counted
        warm = run_child(run_dir, "warmup", None, HARD_LIMIT_S)
        if not warm.ran:
            print(f"bench: strata does not import: {warm.problems[0]}", file=sys.stderr)
            return 1
        step = trace if args.trace else measure
        metrics, calls, samples = step(wl, run_dir, args.seed, args.seconds, started, log)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    failed = sum(not c.ok for c in calls)
    for c in calls:
        if c.problems:
            print(f"{wl.name}: failed call: {'; '.join(c.problems)}", file=sys.stderr)
    if not metrics or any(v is None for v, _ in metrics.values()):
        print("bench: no call of the workload succeeded", file=sys.stderr)
        return 1
    for name, vals in samples.items():
        log(f"{name}: median {statistics.median(vals):.6g} over {len(vals)} samples")
    result = {
        "correct": failed == 0,
        "attempted": len(calls),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in sorted(metrics.items())},
    }
    record = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "smoke": args.smoke, "host": host,
              "samples": samples, "result": result}
    (RUNS / f"{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
