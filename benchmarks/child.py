"""One CLI call in a fresh interpreter, as a user would make it.

    python child.py RESULT_JSON [--trace SPANS_JSON] [-- STRATA_ARGV...]

Writes to RESULT_JSON the perf_counter timestamps taken right after
`import strata.cli` (enter) and right before and after `strata.cli.main`
(start, exit), the time the import took, main's return code and the speed
samples below.  perf_counter is CLOCK_MONOTONIC on Linux, so the parent can
subtract its own launch timestamp from `enter`.  Without STRATA_ARGV the
child only imports (a set-up probe).  With --trace the call runs under
tracer.Tracer and the spans go to SPANS_JSON; untraced calls install no
wrappers.

Speed samples: the speed of a shared host can change by a factor of almost
two within seconds, and its cores change independently, so the child
measures its own speed while it runs.  Every SAMPLE_PERIOD_S a SIGALRM
handler times two fixed tasks of ~0.3 ms each that run no strata code,
whole-array numpy work and a pure-Python loop, and records (start, numpy
seconds, Python seconds); one more sample is taken at `enter` and one at the
end.  The parent uses them to express times at a fixed reference speed.
"""

import json
import signal
import sys
import time

import numpy as np

SAMPLE_PERIOD_S = 0.1


class SpeedSampler:
    def __init__(self):
        self.samples: list[tuple[float, float, float]] = []
        # preallocated, so a sample allocates nothing (1 MB in all)
        self._x = np.linspace(0.0, 1.0, 65536)
        self._y = np.empty_like(self._x)

    def numpy_task(self) -> None:
        x, y = self._x, self._y
        np.arctan(x, out=y)
        np.multiply(y, x, out=y)
        np.exp(y, out=y)
        np.add(y, x, out=y)

    @staticmethod
    def python_task() -> None:
        s = 0
        for i in range(4000):
            s += i * i % 7

    def sample(self, *_) -> None:
        t0 = time.perf_counter()
        self.numpy_task()
        t1 = time.perf_counter()
        self.python_task()
        self.samples.append((t0, t1 - t0, time.perf_counter() - t1))

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def main(argv: list[str]) -> int:
    result_path = argv[0]
    rest = argv[1:]
    spans_path = None
    if rest[:1] == ["--trace"]:
        spans_path, rest = rest[1], rest[2:]
    if rest[:1] == ["--"]:
        rest = rest[1:]

    sampler = SpeedSampler()
    sampler.start()
    t0 = time.perf_counter()
    import strata.cli

    enter = time.perf_counter()
    sampler.sample()
    record = {"enter": enter, "import_s": enter - t0, "rc": None}
    if rest:
        record["start"] = time.perf_counter()
        if spans_path is None:
            rc = strata.cli.main(rest)
        else:
            from tracer import Tracer, installed_wrappers

            tracer = Tracer()
            rc = tracer.run_main(rest)
            left = installed_wrappers()
            if left:
                raise RuntimeError(f"tracer wrappers left installed: {left}")
        record["exit"] = time.perf_counter()
        record["rc"] = rc
    sampler.stop()
    sampler.sample()
    record["speed_samples"] = sampler.samples
    if spans_path is not None:
        info = strata.weights.weight_table.cache_info()
        tracer.write(spans_path, {
            "import_s": record["import_s"],
            "weight_table": {"hits": info.hits, "misses": info.misses},
        })
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return record["rc"] or 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
