"""Run one satpoly benchmark workload and print its metrics.

    python3 perfbench/run.py --workload recognize --seed 1 --seconds 30 --trace 0

The program is imported from ``src/`` next to this directory.  A run sets
up its pool several times (a fresh interpreter imports the package, then
this process generates the instances and runs the oracles), then answers
the pool's items one at a time in a closed loop: one caller, no threads,
the next item sent when the previous answer returns.  Every answer is
checked against its oracle outside the timed region.  The loop runs for
``--seconds`` and always completes at least one whole pass over the pool.

With ``--trace 0`` the last line reports the end-to-end metrics; with
``--trace 1`` one traced pass is followed by untraced items for the
tracer's overhead, and the last line reports the per-layer metrics.  The line before it is an ``info``
object: machine, seed, answer digest, failure kinds, exact counts and the
unscaled timings.

Timings are reported in reference seconds.  The host this was built on
swings by up to 2x in speed over seconds (see README.md), so a fixed
exact-arithmetic kernel runs between measurements, once per
``TICK_SECONDS`` of measured time, and every measured duration is
multiplied by ``REF_SECONDS`` over the mean kernel duration around it.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import types
from collections import defaultdict
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 7
TAIL_BEYOND = 10
MODULES = (
    "linsys", "blockpoint", "builders", "vertices", "reductions",
    "recognition", "ecbgc", "errors", "rational",
)
LAYERS = (
    "linsys.lp", "linsys.rank", "linsys.solve", "linsys.text", "blockpoint.text",
    "builders", "recognition.satp", "recognition.bqp", "recognition.wstar",
    "recognition.decompose", "reductions", "ecbgc.text", "ecbgc.reduce",
    "ecbgc.check", "ecbgc.solve", "vertices.verify", "vertices.edge",
    "vertices.fractional", "vertices.census",
)

#: Mean duration of one ``reference_kernel`` call on an unloaded Intel Xeon
#: (2 vCPUs, Python 3.11); the unit of every reported time.
REF_SECONDS = 0.0060
#: Measured seconds per kernel call: the kernel runs in proportion to the
#: measured time, so its mean weighs fast and slow stretches as the work does.
TICK_SECONDS = 0.2
MAX_TICKS = 10

_KERNEL_ROWS = [
    [Fraction((i * 7 + j * 3) % 11 - 5, 1 + (i + j) % 4) for j in range(64)] for i in range(32)
]


def reference_kernel() -> None:
    """Fixed fraction-heavy elimination step over a tableau-sized matrix.

    The same kind of work as the program's simplex, on a working set of
    about the same size; not satpoly code, so no commit changes it.
    """
    a = [row[:] for row in _KERNEL_ROWS]
    pivot = a[0]
    for r in range(1, len(a)):
        f = a[r][0] / pivot[0]
        if f:
            a[r] = [x - f * y for x, y in zip(a[r], pivot)]


class Gauge:
    """Host speed through a run, from the reference kernel run between measurements."""

    #: Kernel timings to average for one measurement; the window around it
    #: widens until it holds this many.
    WINDOW_SAMPLES = 8

    def __init__(self):
        self.times: list[float] = []  # midpoints of the kernel runs
        self.kernel_samples: list[float] = []
        self.pending = 0.0
        self.tick()

    def tick(self) -> None:
        start = perf_counter()
        reference_kernel()
        end = perf_counter()
        self.times.append((start + end) / 2)
        self.kernel_samples.append(end - start)

    def account(self, seconds: float) -> None:
        """Record measured work; runs one kernel per ``TICK_SECONDS`` of it."""
        self.pending += seconds
        ticks = 0
        while self.pending >= TICK_SECONDS and ticks < MAX_TICKS:
            self.tick()
            self.pending -= TICK_SECONDS
            ticks += 1
        if ticks == MAX_TICKS:
            self.pending = 0.0

    def scaled(self, start: float, seconds: float) -> float:
        """``seconds`` measured from ``start``, in reference seconds.

        The host drifts by tens of percent over seconds, so the factor comes
        from the kernel timings nearest the measurement; the mean, not the
        median, because the work integrates over fast and slow stretches.
        """
        window = 1.0
        while True:
            lo = bisect.bisect_left(self.times, start - window)
            hi = bisect.bisect_right(self.times, start + seconds + window)
            if hi - lo >= self.WINDOW_SAMPLES or hi - lo == len(self.times):
                break
            window *= 2
        return seconds * REF_SECONDS / statistics.mean(self.kernel_samples[lo:hi])

    def factor(self) -> float:
        """Reference seconds per measured second over the whole run."""
        return REF_SECONDS / statistics.mean(self.kernel_samples)


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------


def import_api():
    return types.SimpleNamespace(
        **{name: importlib.import_module(f"satpoly.{name}") for name in MODULES}
    )


def cold_import_seconds() -> float:
    """Import time of the whole package in a fresh interpreter."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
        "import satpoly.cli; print(time.perf_counter() - t)"
    )
    done = subprocess.run(
        [sys.executable, "-c", code, str(SRC)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout)


def set_up(workload, api, seed: int, gauge: Gauge):
    """Import, generate and run the oracles ``SETUP_REPEATS`` times."""
    records, imports, pools = [], [], []
    for _ in range(SETUP_REPEATS):
        began = perf_counter()
        imported = cold_import_seconds()
        start = perf_counter()
        pool = workloads.build_pool(workload, api, seed)
        records.append((began, imported + perf_counter() - start))
        imports.append(imported)
        pools.append(pool_digest(pool))
        gauge.account(records[-1][1])
    if len(set(pools)) != 1:
        raise RuntimeError("the same seed generated different pools")
    return pool, records, statistics.median(imports)


def pool_digest(pool) -> str:
    h = hashlib.sha256()
    for item in pool:
        h.update(repr((item.kind, item.texts)).encode())
    return h.hexdigest()[:16]


# ---------------------------------------------------------------------------
# The closed loop
# ---------------------------------------------------------------------------


class Loop:
    """Answers items one at a time, times them and checks every answer."""

    def __init__(self, api, pool, gauge: Gauge):
        self.api, self.pool, self.gauge = api, pool, gauge
        self.plain = [[] for _ in pool]  # (start, measured seconds) per item, untraced
        self.traced = [[] for _ in pool]  # the same, traced
        self.first: list[str | None] = [None] * len(pool)
        self.verdicts: dict[tuple[int, str], str | None] = {}
        self.failures: dict[str, int] = defaultdict(int)
        self.failure_notes: list[str] = []
        self.attempted = 0
        self.refused = 0
        self.layer_records: list[tuple[float, float, dict]] = []
        self.base_hits = self.base_total = 0

    def answer(self, idx: int, tracer=None) -> None:
        item = self.pool[idx]
        api = self.api
        if tracer is not None:
            root = tracer.begin(tracing.ROOT)
        start = perf_counter()
        result = error = None
        try:
            result = workloads.answer(api, item)
        except api.errors.InternalInvariantError as exc:
            error = ("invariant", exc)
        except Exception as exc:  # a failed instance is counted, the loop goes on
            error = ("exception", exc)
        elapsed = perf_counter() - start
        if tracer is not None:
            tracer.end(root)
        self.gauge.account(elapsed)
        self.attempted += 1
        if tracer is None:
            self.plain[idx].append((start, elapsed))
        else:
            self.traced[idx].append((start, elapsed))
            self.layer_records.append((start, elapsed, tracer.self_times()))
            self._count_base_hits(tracer)
        if error is not None:
            self._fail(error[0], f"{item.label}: {type(error[1]).__name__}: {error[1]}")
            return
        self._check(idx, item, result)

    def _check(self, idx, item, result) -> None:
        text = workloads.canonical(self.api, item, result)
        if text.endswith(workloads.REFUSED):
            self.refused += 1
        key = (idx, text)
        if key not in self.verdicts:
            self.verdicts[key] = workloads.check(self.api, item, result)
        if self.first[idx] is None:
            self.first[idx] = text
        verdict = self.verdicts[key]
        if verdict is not None:
            self._fail("wrong", f"{item.label}: {verdict}")

    def _fail(self, kind: str, note: str) -> None:
        self.failures[kind] += 1
        if len(self.failure_notes) < 5:
            self.failure_notes.append(note)

    def _count_base_hits(self, tracer) -> None:
        for kind, dims, point in tracer.base_points:
            if kind == "satp":
                violated = workloads.satp2_violated(point, *dims)
            else:
                violated = workloads.met_violated(point, *dims)
            self.base_total += 1
            self.base_hits += not violated
        tracer.base_points.clear()

    def run_pass(self, tracer=None) -> None:
        for idx in range(len(self.pool)):
            self.answer(idx, tracer)

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    def answers_digest(self) -> str:
        return hashlib.sha256("\n".join(self.first).encode()).hexdigest()[:16]


def measure_plain(loop: Loop, seconds: float) -> None:
    deadline = perf_counter() + seconds
    idx = 0
    while idx < len(loop.pool) or perf_counter() < deadline:
        loop.answer(idx % len(loop.pool))
        idx += 1


def measure_traced(loop: Loop, seconds: float) -> tracing.Tracer:
    """One traced pass, then untraced items until the deadline (a quarter pass at least)."""
    tracer = tracing.Tracer()
    deadline = perf_counter() + seconds
    tracer.install(tracing.targets())
    try:
        loop.run_pass(tracer)
    finally:
        tracer.uninstall()
    idx = 0
    while idx < len(loop.pool) and (4 * idx < len(loop.pool) or perf_counter() < deadline):
        loop.answer(idx)
        idx += 1
    return tracer


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def item_latencies(samples, gauge: Gauge | None = None) -> list[float]:
    """Median time per item, in reference seconds (measured seconds without a gauge)."""
    if gauge is None:
        return [statistics.median(t for _, t in s) for s in samples]
    return [statistics.median(gauge.scaled(*sample) for sample in s) for s in samples]


def tail(latencies: list[float]) -> tuple[float, float]:
    """Value and percentile of the highest rank with ten items beyond it."""
    ordered = sorted(latencies)
    rank = len(ordered) - TAIL_BEYOND - 1
    return ordered[rank], 100.0 * (rank + 1) / len(ordered)


def end_to_end(loop: Loop, setup_records) -> dict:
    latencies = item_latencies(loop.plain, loop.gauge)
    tail_value, _ = tail(latencies)
    setup = statistics.median(loop.gauge.scaled(*r) for r in setup_records)
    return {
        "throughput_per_s": (len(latencies) / sum(latencies), "1/s"),
        "latency_p50_s": (statistics.median(latencies), "s"),
        "latency_tail_s": (tail_value, "s"),
        "setup_s": (setup, "s"),
        "peak_rss_mib": (peak_rss_mib(), "MiB"),
    }


def per_layer(loop: Loop, tracer: tracing.Tracer) -> dict:
    """Per-layer figures of the one traced pass."""
    counts = tracer.counts
    per_pass: dict[str, float] = defaultdict(float)
    for start, elapsed, self_times in loop.layer_records:
        factor = loop.gauge.scaled(start, elapsed) / elapsed if elapsed else 0.0
        for name, seconds in self_times.items():
            per_pass[name] += seconds * factor
    lp_calls = counts["linsys.lp.calls"]
    rank_calls = counts["linsys.rank.calls"]
    solve_calls = counts["ecbgc.solve.calls"] + counts["ecbgc.solve.raised.SubclassError"]
    metrics = {f"{layer}.s": (per_pass.get(layer, 0.0), "s") for layer in LAYERS}
    metrics.update(
        {
            "linsys.lp.calls": (lp_calls, "count"),
            "linsys.lp.rows_mean": (_share(counts["linsys.lp.rows"], lp_calls), "rows"),
            "linsys.lp.strengthened_share": (
                _share(counts["linsys.lp.strengthened"], lp_calls), "ratio"),
            "linsys.lp.result_bits_max": (counts["linsys.lp.result_bits_max"], "bits"),
            "linsys.rank.calls": (rank_calls, "count"),
            "linsys.rank.deficient_share": (
                _share(counts["linsys.rank.deficient"], rank_calls), "ratio"),
            "linsys.solve.calls": (counts["linsys.solve.calls"], "count"),
            "builders.rows_emitted": (counts["builders.rows_emitted"], "count"),
            "recognition.base_hit_share": (_share(loop.base_hits, loop.base_total), "ratio"),
            "ecbgc.refused_share": (
                _share(counts["ecbgc.solve.raised.SubclassError"], solve_calls), "ratio"),
            "vertices.census.vertices": (counts["vertices.census.vertices"], "count"),
            "bench.s": (per_pass.get(tracing.ROOT, 0.0), "s"),
            "trace.overhead_share": (_overhead(loop), "ratio"),
            "trace.accounted_share": (
                _share(
                    sum(sum(d.values()) for _, _, d in loop.layer_records),
                    sum(elapsed for _, elapsed, _ in loop.layer_records),
                ),
                "ratio",
            ),
        }
    )
    return metrics


def _overhead(loop: Loop) -> float:
    """Traced over untraced time of the items timed both ways, minus one."""
    both = [i for i, s in enumerate(loop.plain) if s]
    traced = item_latencies([loop.traced[i] for i in both], loop.gauge)
    plain = item_latencies([loop.plain[i] for i in both], loop.gauge)
    return sum(traced) / sum(plain) - 1


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def exact_counts(metrics: dict) -> dict:
    """Per-layer values that must repeat exactly for the same code and seed."""
    keys = (
        "linsys.lp.calls", "linsys.lp.rows_mean", "linsys.lp.strengthened_share",
        "linsys.lp.result_bits_max", "linsys.rank.calls", "linsys.rank.deficient_share",
        "linsys.solve.calls", "builders.rows_emitted", "recognition.base_hit_share",
        "ecbgc.refused_share", "vertices.census.vertices",
    )
    return {key: metrics[key][0] for key in keys}


def machine() -> dict:
    model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "cpu_model": model}


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def parse_args(argv, names):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(names))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None, workload_table=None) -> int:
    table = workloads.WORKLOADS if workload_table is None else workload_table
    args = parse_args(argv, table)
    if not (SRC / "satpoly" / "__init__.py").is_file():
        print(f"satpoly sources not found under {SRC}", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    api = import_api()
    workload = table[args.workload]
    gauge = Gauge()
    pool, setup_records, import_seconds = set_up(workload, api, args.seed, gauge)
    if len(pool) <= TAIL_BEYOND:
        raise ValueError("a pool needs more items than the tail leaves beyond it")
    loop = Loop(api, pool, gauge)
    info = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, **machine(), "pool_items": len(pool),
        "pool_digest": pool_digest(pool),
    }
    if args.trace:
        tracer = measure_traced(loop, args.seconds)
        metrics = per_layer(loop, tracer)
        info.update(exact=exact_counts(metrics))
    else:
        measure_plain(loop, args.seconds)
        metrics = end_to_end(loop, setup_records)
        raw = item_latencies(loop.plain)
        info.update(
            tail_percentile=tail(raw)[1],
            tail_samples=len(pool),
            timings=sum(len(s) for s in loop.plain),
            unscaled={
                "latency_p50_s": statistics.median(raw),
                "throughput_per_s": len(raw) / sum(raw),
                "setup_s": statistics.median(t for _, t in setup_records),
                "import_s": import_seconds,
            },
        )
    info.update(
        answers_digest=loop.answers_digest(),
        attempted=loop.attempted,
        error_rate=loop.failed / loop.attempted,
        failures=dict(loop.failures),
        failure_notes=loop.failure_notes,
        refused=loop.refused,
        reference_kernel_s=statistics.mean(gauge.kernel_samples),
        host_factor=gauge.factor(),
    )
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({"info": info}, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": loop.failed == 0,
                "attempted": loop.attempted,
                "failed": loop.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
