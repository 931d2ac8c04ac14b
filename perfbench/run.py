"""The repository's benchmark: the default (``engine="auto"``) path,
end to end and layer by layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload {cold,whatif,churn} \\
        --seed N --seconds S --trace {0,1}

Inputs are generated from ``--seed``; the program, imported from this
checkout's ``src``, receives only those inputs and runs with its
defaults.  Every answer is checked against an oracle outside the timed
region.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``:

* ``--trace 0``: the end-to-end metrics of ``BENCHMARK.json``, measured
  for ``--seconds`` seconds with nothing traced;
* ``--trace 1``: the per-layer metrics.  Spans are recorded around each
  call into a layer on every other operation (written to
  ``.perfbench_out/``); the traced operations' median latency over the
  untraced ones', minus one, is the tracing overhead.  ``churn`` then
  also measures the server layer (``perfbench/serve.py``).  A layer a
  workload does not reach reads 0.

Latencies, ``throughput_ops`` and ``setup_s`` count CPU time (see
``perfbench/harness.py``): the host's steal is noise, not program cost.
The same latencies in wall time are printed as ``wall_*``.  Each of
them, and ``throughput_ops``, is the median over consecutive blocks of
operations of that statistic of each block (:func:`block_median`).

``rss_peak_mb`` is memory the program needs, not the benchmark's own:
for ``cold``, the peak RSS of fresh ``hypodatalog`` processes on the
largest cases; for ``whatif`` and ``churn``, the peak RSS a fixed number
of timed operations add once the inputs, their expected answers and the
warm-up are resident.

Lines before it print every metric, including those that only apply to
some workloads (``write_*``, ``failed_share``) and the wall times, with
the seed, the host fingerprint and the engine ``auto`` selected per
session.  The exit code is 0 when every answer was right, 1 when one
was wrong or an operation failed, and 2 when the program cannot be run.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import statistics
import sys
from typing import Callable

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.dirname(HERE), os.path.join(os.path.dirname(HERE), "src")]

from perfbench.harness import OUT, SRC, WORK, Phase, Spans, fingerprint, median, quantile  # noqa: E402
from perfbench.serve import SERVER_LAYER  # noqa: E402

WORKLOADS = ("cold", "whatif", "churn")

END_TO_END = {
    "setup_s": "s",
    "throughput_ops": "1/s",
    "read_p50_ms": "ms",
    "read_p99_ms": "ms",
    "rss_peak_mb": "MB",
}
#: Printed where they apply; ``BENCHMARK.json`` gates only the metrics
#: every workload has.
REPORT_ONLY = {
    "write_p50_ms": "ms",
    "write_p99_ms": "ms",
    "failed_share": "share",
    "wall_read_p50_ms": "ms",
    "wall_read_p99_ms": "ms",
    "wall_write_p50_ms": "ms",
    "wall_write_p99_ms": "ms",
}
PER_LAYER = {
    "cli.import_ms": "ms",
    "cli.self_ms": "ms",
    "cli.repeat_ratio": "ratio",
    "core.parse_ms": "ms",
    "core.db_load_ms": "ms",
    "core.db_update_us": "us",
    "analysis.stratify_ms": "ms",
    "engine.build_ms": "ms",
    "engine.ask_p50_ms": "ms",
    "engine.ask_p99_ms": "ms",
    "engine.answers_p50_ms": "ms",
    "engine.answers_p99_ms": "ms",
    "engine.refresh_p50_ms": "ms",
    "engine.refresh_p99_ms": "ms",
    "engine.hypothesis_expansions": "count/1000ops",
    "engine.negation_tests": "count/1000ops",
    "engine.cache_hit_share": "share",
    "engine.cache_lookups": "count/1000ops",
    "engine.rule_firings": "count/1000ops",
    "engine.models_computed": "count/1000ops",
    "engine.dred_firings": "count/1000ops",
    "mem.growth_mb": "MB",
    "trace.overhead_share": "share",
    **SERVER_LAYER,
}


#: Operations per block in :func:`block_median`: ten samples beyond each
#: block's p99, and enough of a workload's rare heavy operations in each
#: block (3% on ``cold``) that a block's median and throughput are not
#: decided by how many it drew.
BLOCK = 1000


def block_median(values: list[float], size: int, stat: Callable[[list[float]], float]) -> float:
    """The median, over consecutive blocks of at least ``size`` operations,
    of ``stat`` of each block; ``stat`` of all of them when there are
    fewer than two blocks.

    The host's speed changes by up to twice within a run, in stretches of
    seconds to minutes.  A statistic of the whole run moves with the share
    of the run that fell in a fast or slow stretch, the p99 most of all,
    because the slowed heavy operations fill the top 1%; the median over
    blocks moves only once that share passes half the run."""
    count = len(values) // size
    if count < 2:
        return stat(values)
    cuts = [k * len(values) // count for k in range(count + 1)]
    return statistics.median(stat(values[a:b]) for a, b in zip(cuts, cuts[1:]))


def p50(values: list[float]) -> float:
    return quantile(values, 0.5)


def p99(values: list[float]) -> float:
    return quantile(values, 0.99)


def ops_per_second(latencies: list[float]) -> float:
    """Closed-loop throughput: operations per second of (CPU) time spent
    inside the program."""
    busy = sum(latencies)
    return len(latencies) / busy if busy else 0.0


def _module(name: str):
    import importlib

    return importlib.import_module(f"perfbench.{name}")


def end_to_end(setups: list[float], phase: Phase) -> dict[str, float]:
    values = {
        "setup_s": median(setups + phase.setups),
        "throughput_ops": block_median(phase.latencies, BLOCK, ops_per_second),
        "read_p50_ms": block_median(phase.reads, BLOCK, p50) * 1e3,
        "read_p99_ms": block_median(phase.reads, BLOCK, p99) * 1e3,
        "rss_peak_mb": phase.rss_peak_mb,
        "failed_share": phase.failed / phase.attempted if phase.attempted else 1.0,
        "wall_read_p50_ms": block_median(phase.wall_reads, BLOCK, p50) * 1e3,
        "wall_read_p99_ms": block_median(phase.wall_reads, BLOCK, p99) * 1e3,
    }
    if phase.writes:
        values["write_p50_ms"] = block_median(phase.writes, BLOCK, p50) * 1e3
        values["write_p99_ms"] = block_median(phase.writes, BLOCK, p99) * 1e3
        values["wall_write_p50_ms"] = block_median(phase.wall_writes, BLOCK, p50) * 1e3
        values["wall_write_p99_ms"] = block_median(phase.wall_writes, BLOCK, p99) * 1e3
    return values


def per_layer(spans: Spans, phase: Phase) -> dict[str, float]:
    """Layer numbers from the spans of the traced phase: per-call
    medians of self time, and p50/p99 for the engine's query calls."""
    own = spans.self_times()
    values = {name: 0.0 for name in PER_LAYER}
    for metric, span, scale in (
        ("core.parse_ms", "core.parse", 1e3),
        ("core.db_load_ms", "core.db_load", 1e3),
        ("core.db_update_us", "core.db_update", 1e6),
        ("analysis.stratify_ms", "analysis.stratify", 1e3),
    ):
        values[metric] = median(own.get(span, ())) * scale
    for call in ("ask", "answers", "refresh"):
        times = own.get(f"engine.{call}", ())
        values[f"engine.{call}_p50_ms"] = quantile(times, 0.5) * 1e3
        values[f"engine.{call}_p99_ms"] = quantile(times, 0.99) * 1e3
    session = spans.per_op("engine.session")
    stratify = spans.per_op("analysis.stratify")
    values["engine.build_ms"] = median(session[op] - stratify.get(op, 0.0) for op in session) * 1e3
    values.update(phase.counters)
    values["mem.growth_mb"] = phase.rss_growth_mb
    values["trace.overhead_share"] = tracing_overhead(phase)
    return values


def tracing_overhead(phase: Phase) -> float:
    """Median latency of traced over untraced operations, minus one,
    per kind of operation, weighted by how many there were."""
    shares, weights = 0.0, 0
    for kind in ("read", "write"):
        on, off = [], []
        for seconds, k, flag in zip(phase.latencies, phase.kinds, phase.traced):
            if k == kind:
                (on if flag else off).append(seconds)
        if on and off:
            shares += (median(on) / median(off) - 1.0) * (len(on) + len(off))
            weights += len(on) + len(off)
    return shares / weights if weights else 0.0


def _print_table(title: str, values: dict[str, float], units: dict[str, str]) -> None:
    print(title)
    for name, value in values.items():
        print(f"  {name:<30} {value:>14.6g} {units[name]}")


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Run one workload; returns (result line, report)."""
    module = _module(workload)
    ctx = module.prepare(module.make_inputs(seed))
    # The generated inputs and oracles stay alive for the whole run; keep
    # them out of the collector's way so its pauses are the program's.
    gc.collect()
    gc.freeze()
    try:
        setups = module.measure_setup(ctx)
        spans = Spans() if trace else None
        phase = module.run_phase(ctx, seconds, spans)
        if trace:
            own = getattr(module, "layers", lambda *a: {})(ctx, phase, spans)  # may add spans
            metrics = per_layer(spans, phase)
            metrics.update(own)
            units = PER_LAYER
            spans.write(os.path.join(OUT, f"spans-{workload}-seed{seed}.jsonl"))
        else:
            metrics = end_to_end(setups, phase)
            units = {**END_TO_END, **REPORT_ONLY}
    finally:
        getattr(module, "close", lambda c: None)(ctx)
        gc.unfreeze()
    attempted, failed = phase.attempted, phase.failed
    report = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "fingerprint": fingerprint(),
        "engine.selected": phase.selected,
        "samples": {"reads": len(phase.reads), "writes": len(phase.writes)},
        "setup_samples_s": setups + phase.setups,
        "notes": phase.notes,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in metrics if name in units},
        "failures": phase.failures,
    }
    listed = PER_LAYER if trace else END_TO_END
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": listed[name]} for name in listed},
    }
    return result, report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program to measure under {SRC}", file=sys.stderr)
        return 2
    try:
        result, report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(OUT, exist_ok=True)
    name = f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, name), "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
    shown = {k: v["value"] for k, v in report["metrics"].items()}
    _print_table(
        f"{args.workload} seed={args.seed} trace={args.trace} engine.selected={report['engine.selected']}",
        shown,
        {k: v["unit"] for k, v in report["metrics"].items()},
    )
    for failure in report["failures"]:
        print(f"  FAILED {failure}")
    print(json.dumps({k: report[k] for k in ("fingerprint", "samples", "engine.selected")}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
