"""Measurement plumbing shared by the workloads.

Latency samples and their quantiles, the in-memory span log of the
traced run, the engine counters read from ``Session.metrics``, memory
read from ``/proc``, and the host fingerprint recorded with every
result.

Operations and set-ups that run in this process are timed in CPU time
of the calling thread (:class:`Timer`), fresh interpreters in their
user and system time.  They wait on nothing but files the page cache
holds, so that is their wall time less the time the host kept the CPU
from them: on a shared virtual machine the host takes the CPU away in
bursts (steal), which a latency tail follows far more than a median.
Wall times are kept beside them and printed in the report.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from typing import Callable, Iterable, Iterator, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
EXAMPLES = os.path.join(ROOT, "examples", "rulebases")
WORK = os.path.join(ROOT, ".perfbench_work")
OUT = os.path.join(ROOT, ".perfbench_out")

FAILURES_KEPT = 20


def quantile(values: Iterable[float], q: float) -> float:
    """Nearest-rank quantile of ``values`` (0 when there are none)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = min(len(ordered) - 1, max(0, int(q * len(ordered) + 0.5) - 1))
    return ordered[rank]


def median(values: Iterable[float]) -> float:
    return quantile(values, 0.5)


class Timer:
    """CPU time (``cpu``) and wall time (``wall``) of a ``with`` block,
    in seconds, once the block is left."""

    def __enter__(self) -> "Timer":
        self.cpu, self.wall = time.thread_time(), time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.cpu = time.thread_time() - self.cpu
        self.wall = time.perf_counter() - self.wall


class Phase:
    """What one timed pass of a workload measured.

    ``reads``/``writes`` hold per-operation latencies (CPU time, see
    :class:`Timer`) in seconds, ``wall_reads``/``wall_writes`` the same
    operations' wall times, and ``latencies`` every operation's latency
    in the order they ran, with its kind in ``kinds`` and in ``traced``
    whether spans were recorded around it.  ``verdict`` counts an
    operation as attempted, and as failed when it raised or its answer
    disagreed with the oracle.
    """

    def __init__(self) -> None:
        self.reads: list[float] = []
        self.writes: list[float] = []
        self.wall_reads: list[float] = []
        self.wall_writes: list[float] = []
        self.latencies: list[float] = []
        self.kinds: list[str] = []
        self.traced: list[bool] = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.counters: dict[str, float] = {}
        self.selected: dict[str, str] = {}
        self.notes: dict = {}
        self.setups: list[float] = []
        self.rss_base_mb = 0.0
        self.peak_resettable = False
        self.rss_peak_mb = 0.0
        self.rss_growth_mb = 0.0

    def record(self, kind: str, timer: Timer, traced: bool = False) -> None:
        (self.reads if kind == "read" else self.writes).append(timer.cpu)
        (self.wall_reads if kind == "read" else self.wall_writes).append(timer.wall)
        self.latencies.append(timer.cpu)
        self.kinds.append(kind)
        self.traced.append(traced)

    def verdict(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < FAILURES_KEPT:
                self.failures.append(what)

    def start_memory(self) -> None:
        """Mark the start of the timed operations, once the inputs, their
        oracles and the warm-up are resident: from here on the peak RSS
        counts only what the operations add."""
        self.rss_base_mb = proc_mb("VmRSS")
        self.peak_resettable = reset_peak_rss()
        self.notes["rss_base_mb"] = self.rss_base_mb
        self.notes["peak_rss_reset"] = self.peak_resettable

    def peak_rss_at(self, ops: int) -> None:
        """Take the peak RSS above :meth:`start_memory` once ``ops``
        operations are done, so that memory that grows with every
        operation is compared at the same amount of work however fast
        the run went.  Called after every operation and once more at the
        end.  Where the peak cannot be reset, the current RSS stands in."""
        if not self.rss_peak_mb and (len(self.latencies) >= ops or ops < 0):
            field = "VmHWM" if self.peak_resettable else "VmRSS"
            self.rss_peak_mb = proc_mb(field) - self.rss_base_mb

    def end_memory(self, spans: Optional[Spans]) -> None:
        """RSS growth over the timed operations, less what the span log
        of a traced run holds."""
        held = spans.nbytes() / 2**20 if spans is not None else 0.0
        self.rss_growth_mb = proc_mb("VmRSS") - self.rss_base_mb - held


def clock(
    seconds: float, phase: Phase, setup: Optional[Callable[[], float]], every: float
) -> Callable[[], bool]:
    """A check to make between operations: true until ``seconds`` have
    passed.  Every ``every`` seconds it first times ``setup`` once more
    into ``phase.setups``, so that the set-up time is sampled across the
    whole run rather than in one burst at its start."""
    deadline = time.perf_counter() + seconds
    probe = [time.perf_counter() + every]

    def running() -> bool:
        if setup is not None and time.perf_counter() >= probe[0]:
            phase.setups.append(setup())
            probe[0] = time.perf_counter() + every
        return time.perf_counter() < deadline

    return running


class Spans:
    """In-memory span log of the traced run.

    Each record is ``(id, name, start, end, parent, op)``; ``parent`` is
    the id of the span open around it (``None`` at top level) and ``op``
    the operation the span belongs to.  Nothing is written until
    :meth:`write`, at the end of the run.
    """

    def __init__(self) -> None:
        self.records: list[tuple] = []
        self._open: list[int] = []
        self._next = 0

    def call(self, name: str, op: int, fn: Callable, /, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span named ``name``."""
        ident = self._next
        self._next += 1
        parent = self._open[-1] if self._open else None
        self._open.append(ident)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._open.pop()
            self.records.append((ident, name, start, end, parent, op))

    def add(self, name: str, start: float, end: float, op: int) -> None:
        """Record a top-level span timed elsewhere."""
        self.records.append((self._next, name, start, end, None, op))
        self._next += 1

    def _own(self) -> Iterator[tuple[str, int, float]]:
        """Each span's name, op and self time: its duration minus the
        part its children cover."""
        children: dict[int, float] = {}
        for _, _, start, end, parent, _ in self.records:
            if parent is not None:
                children[parent] = children.get(parent, 0.0) + (end - start)
        for ident, name, start, end, _, op in self.records:
            yield name, op, end - start - children.get(ident, 0.0)

    def self_times(self) -> dict[str, list[float]]:
        """Per span name, the self time of each span."""
        out: dict[str, list[float]] = {}
        for name, _, own in self._own():
            out.setdefault(name, []).append(own)
        return out

    def per_op(self, name: str) -> dict[int, float]:
        """Total self time of spans named ``name``, keyed by op id."""
        totals: dict[int, float] = {}
        for span_name, op, own in self._own():
            if span_name == name:
                totals[op] = totals.get(op, 0.0) + own
        return totals

    def nbytes(self) -> int:
        """Bytes the records hold: the list, each tuple and the numbers
        in it that are not shared (span names are)."""
        total = sys.getsizeof(self.records)
        for record in self.records:
            total += sys.getsizeof(record)
            total += sum(
                sys.getsizeof(v) for v in record
                if isinstance(v, float) or isinstance(v, int) and not -5 <= v <= 256
            )
        return total

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for ident, name, start, end, parent, op in self.records:
                handle.write(
                    json.dumps(
                        {
                            "id": ident,
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "op": op,
                        }
                    )
                    + "\n"
                )


def every_other(spans: Optional[Spans], op: int) -> Optional[Spans]:
    """The traced run records spans around odd operations only, so the
    even ones, drawn from the same stream at the same time, give the
    untraced baseline for the tracing overhead."""
    return spans if spans is not None and op % 2 else None


def traced(spans: Optional[Spans], name: str, op: int, fn: Callable, /, *args, **kwargs):
    """Call ``fn`` directly, or inside a span when tracing."""
    if spans is None:
        return fn(*args, **kwargs)
    return spans.call(name, op, fn, *args, **kwargs)


# -- engine counters ------------------------------------------------------

_SUMS = {
    "engine.hypothesis_expansions": (
        "prove.hypothesis_expansions",
        "topdown.hypothesis_expansions",
        "model.hypothesis_expansions",
    ),
    "engine.negation_tests": (
        "prove.negation_tests",
        "topdown.negation_tests",
        "model.negation_tests",
    ),
    "engine.rule_firings": ("stratified.rule_firings", "model.rule_firings"),
    "engine.models_computed": ("prove.delta_models", "model.models_computed"),
    "engine.dred_firings": ("dred.overdelete_firings",),
}
_HITS = (
    "prove.sigma_cache_hits",
    "prove.delta_cache_hits",
    "topdown.cache_hits",
    "model.cache_hits",
)
_MISSES = (
    "prove.sigma_goals",
    "prove.delta_models",
    "topdown.goals",
    "model.cache_misses",
)


def counter_totals(registries: Iterable) -> dict[str, int]:
    """Sum of every integer counter over the given metrics registries."""
    totals: dict[str, int] = {}
    for registry in registries:
        for name, value in registry.snapshot().items():
            if isinstance(value, int):
                totals[name] = totals.get(name, 0) + value
    return totals


def engine_counters(before: dict[str, int], after: dict[str, int], ops: int) -> dict[str, float]:
    """The engine counters of the timed operations, per 1000 operations.

    ``engine.cache_hit_share`` is hits over lookups; its base,
    ``engine.cache_lookups``, is reported per 1000 operations too.
    """
    delta = {name: after.get(name, 0) - before.get(name, 0) for name in after}
    scale = 1000.0 / ops if ops else 0.0
    out = {
        name: sum(delta.get(part, 0) for part in parts) * scale
        for name, parts in _SUMS.items()
    }
    hits = sum(delta.get(name, 0) for name in _HITS)
    lookups = hits + sum(delta.get(name, 0) for name in _MISSES)
    out["engine.cache_hit_share"] = hits / lookups if lookups else 0.0
    out["engine.cache_lookups"] = lookups * scale
    return out


# -- memory and host ------------------------------------------------------


def proc_mb(field: str, pid: str = "self") -> float:
    """A ``VmRSS``/``VmHWM`` line of ``/proc/<pid>/status`` in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith(field + ":"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"{field} missing from /proc/{pid}/status")


def reset_peak_rss() -> bool:
    """Reset this process's peak RSS (``VmHWM``) to its current RSS;
    false where the kernel does not allow it."""
    try:
        with open("/proc/self/clear_refs", "w", encoding="ascii") as handle:
            handle.write("5")
    except OSError:
        return False
    return True


def python_env() -> dict[str, str]:
    """Environment for a child interpreter that imports the program
    from this checkout's ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def fingerprint() -> dict:
    """Where a result came from: interpreter, cores, and the program's
    revision (git commit when the checkout is a repository, and always
    a digest of ``src``)."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    digest = hashlib.sha256()
    for folder, dirs, files in sorted(os.walk(SRC)):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".pyc"):
                continue
            path = os.path.join(folder, name)
            digest.update(os.path.relpath(path, SRC).encode())
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "executable": os.path.basename(sys.executable),
    }
