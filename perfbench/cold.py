"""``cold``: one ``hypodatalog query|answers`` invocation per operation.

Each operation calls ``repro.cli.main`` in-process on a (rulebase,
database, query) triple drawn from a seeded pool: the ten shipped
``examples/rulebases/*.dl`` files over generated databases, plus
generated layered rulebases of a few hundred rules.  Parsing, analysis
and engine construction do most of the work; engine search is kept
small.  The calls run in one warm interpreter: the cost of importing
the program is ``setup_s``, not part of each call.  Nothing warm
should survive from one call to the next; the traced run checks that
module-level state does not make a repeated call cheaper than the first
call on the same inputs, and counts a failure when it does.
"""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
import threading
from contextlib import redirect_stderr, redirect_stdout

from . import oracles
from .harness import (
    WORK, Phase, Spans, Timer, clock, counter_totals, engine_counters, every_other, median, python_env, traced,
)
from .inputs import CORE_COURSES, ELECTIVES, digraph, example_text, facts_text, graph, layered_rules, rng_for

POOL_PER_EXAMPLE = 24
LAYERED_CASES = 12
#: Share of invocations on a generated layered rulebase.
LAYERED_SHARE = 0.03
LAYERED_PREDICATES = 120
LAYERED_STRATA = 6
STREAM = 40000
#: The peak RSS is that of fresh ``hypodatalog`` processes on this many
#: of the pool's largest cases.
RSS_CASES = 3
SETUP_REPEATS = 3
#: Seconds between set-up samples during the run.
SETUP_EVERY = 3.0
#: Per rulebase label in the repeat check: calls on other cases first,
#: then cases each called once and ``REPEAT_CALLS`` more times.
REPEAT_WARM = 3
REPEAT_CASES = 3
REPEAT_CALLS = 3
#: A median repeated/first call time below this fails the run: state
#: surviving between calls would make the workload less than cold.
REPEAT_FLOOR = 0.85


def _rows_text(rows) -> str:
    """What ``answers`` prints for a set of payload tuples."""
    return "".join(", ".join(str(v) for v in row) + "\n" for row in sorted(rows, key=str))


def _verdict_text(answer: bool) -> tuple[str, int]:
    return ("yes\n", 0) if answer else ("no\n", 1)


def _case(label, rules, facts, command, query, expected=None):
    return {
        "label": label,
        "rules": rules,
        "db": facts_text(facts),
        "command": command,
        "query": query,
        "expected": expected,
    }


def _example_cases(rng) -> list[dict]:
    """Cases over the shipped examples; ``expected`` is filled here by
    brute force where the problem is a plain one, else later by the
    top-down engine."""
    cases = []
    text = {name: example_text(name) for name in (
        "hamiltonian.dl", "parity.dl", "coloring.dl", "graduation.dl", "degree.dl",
        "example9.dl", "example10.dl", "order_iteration.dl", "addition_chain.dl", "revocation.dl",
    )}
    for _ in range(POOL_PER_EXAMPLE):
        nodes, edges = digraph(rng, rng.choice((4, 5)), 0.35)
        cases.append(_case(
            "hamiltonian.dl", text["hamiltonian.dl"],
            [("node", n) for n in nodes] + [("edge", a, b) for a, b in edges],
            "query", "yes", _verdict_text(oracles.hamiltonian_path(nodes, edges)),
        ))

        size = rng.randrange(2, 6)
        goal = rng.choice(("even", "odd"))
        cases.append(_case(
            "parity.dl", text["parity.dl"], [("a", f"x{i}") for i in range(size)],
            "query", goal, _verdict_text(oracles.even(size) == (goal == "even")),
        ))

        nodes, edges = graph(rng, rng.choice((4, 5)), 0.45)
        while not oracles.colorable(nodes, edges, 3):  # keep the search short
            nodes, edges = graph(rng, len(nodes), 0.45)
        colors = 3
        cases.append(_case(
            "coloring.dl", text["coloring.dl"],
            [("node", n) for n in nodes] + [("edge", a, b) for a, b in edges]
            + [("color", c) for c in ("r", "g", "b")[:colors]],
            "query", "yes", _verdict_text(oracles.colorable(nodes, edges, colors)),
        ))

        students = [f"s{i}" for i in range(rng.randrange(4, 7))]
        takes = [(s, c) for s in students for c in CORE_COURSES if rng.random() < 0.6]
        facts = [("student", s) for s in students] + [("take", s, c) for s, c in takes]
        shape = rng.randrange(3)
        if shape == 0:
            who, course = rng.choice(students), rng.choice(CORE_COURSES + ELECTIVES[:3])
            after = takes + [(who, course)]
            cases.append(_case(
                "graduation.dl", text["graduation.dl"], facts, "query",
                f"grad({who})[add: take({who}, {course})]",
                _verdict_text(who in oracles.graduates(after)),
            ))
        elif shape == 1:
            rows = {(s,) for s in oracles.within_one(students, takes)}
            cases.append(_case(
                "graduation.dl", text["graduation.dl"], facts, "answers",
                "within_one(S)", (_rows_text(rows), 0),
            ))
        else:
            rows = {(s,) for s in oracles.graduates(takes)}
            cases.append(_case(
                "graduation.dl", text["graduation.dl"], facts, "answers",
                "grad(S)", (_rows_text(rows), 0),
            ))

        students = [f"s{i}" for i in range(rng.randrange(3, 6))]
        held = {s: frozenset(c for c in oracles.MATH + oracles.PHYS if rng.random() < 0.5) for s in students}
        rows = {(s,) for s in students if oracles.degree(held[s], "mathphys")}
        cases.append(_case(
            "degree.dl", text["degree.dl"],
            [("take", s, c) for s in students for c in sorted(held[s])],
            "answers", "grad(S, mathphys)", (_rows_text(rows), 0),
        ))

        atoms = [f"{p}{i}" for p in "bcd" for i in (1, 2, 3)]
        cases.append(_case(
            "example9.dl", text["example9.dl"], [(a,) for a in atoms if rng.random() < 0.5],
            "query", rng.choice(("a1", "a2", "a3")),
        ))

        atoms = ["b1", "c2", "d2", "e1", "f1", "e2", "f2", "g1", "b2"]
        cases.append(_case(
            "example10.dl", text["example10.dl"], [(a,) for a in atoms if rng.random() < 0.4],
            "query", rng.choice(("a1", "a2", "d2")),
        ))

        length = rng.randrange(3, 9)
        names = [f"o{i}" for i in range(length)]
        links = [("next", a, b) for a, b in zip(names, names[1:]) if rng.random() < 0.9]
        cases.append(_case(
            "order_iteration.dl", text["order_iteration.dl"],
            [("first", names[0]), ("last", names[-1])] + links, "query", "a",
        ))

        cases.append(_case(
            "addition_chain.dl", text["addition_chain.dl"],
            [(a,) for a in ("b1", "b2", "b3", "d") if rng.random() < 0.4],
            "query", rng.choice(("a1", "a2", "a3", "a4")),
        ))

        people = [f"q{i}" for i in range(rng.randrange(2, 6))]
        cases.append(_case(
            "revocation.dl", text["revocation.dl"],
            [("person", p) for p in people]
            + [("clearance", p) for p in people if rng.random() < 0.6]
            + [("vouched", p) for p in people if rng.random() < 0.4],
            "answers", "robust(P)",
        ))
    return cases


def _layered_cases(rng) -> list[dict]:
    cases = []
    for _ in range(LAYERED_CASES):
        rules = layered_rules(rng, LAYERED_PREDICATES, LAYERED_STRATA)
        facts = [(f"e{i}",) for i in range(LAYERED_PREDICATES) if rng.random() < 0.5]
        facts += [(f"d{i}",) for i in range(LAYERED_PREDICATES) if rng.random() < 0.3]
        goal = f"p{rng.randrange(LAYERED_PREDICATES - LAYERED_STRATA, LAYERED_PREDICATES)}"
        cases.append(_case("layered", rules, facts, "query", goal))
    return cases


def make_inputs(seed: int) -> dict:
    """The pool of cases and the seeded order in which they are run.

    Expected outputs that need the top-down engine are left ``None``
    here and filled in by :func:`prepare`, outside any timed region.
    """
    rng = rng_for(seed, "cold")
    examples = _example_cases(rng)
    layered = _layered_cases(rng)
    cases = examples + layered
    stream = []
    for _ in range(STREAM):
        if rng.random() < LAYERED_SHARE:
            stream.append(len(examples) + rng.randrange(len(layered)))
        else:
            stream.append(rng.randrange(len(examples)))
    return {"cases": cases, "stream": stream}


def prepare(inputs: dict) -> dict:
    """Write each case's files, fill in the top-down engine's expected
    outputs, and note which engine ``auto`` picks per rulebase."""
    from repro import Session, parse_database, parse_program

    os.makedirs(WORK, exist_ok=True)
    selected = {}
    for index, case in enumerate(inputs["cases"]):
        rules_path = os.path.join(WORK, f"cold{index}.dl")
        db_path = os.path.join(WORK, f"cold{index}.db")
        with open(rules_path, "w", encoding="utf-8") as handle:
            handle.write(case["rules"])
        with open(db_path, "w", encoding="utf-8") as handle:
            handle.write(case["db"])
        case["argv"] = [case["command"], rules_path, case["query"], "-d", db_path]
        rulebase = parse_program(case["rules"])
        if case["expected"] is None:
            db = parse_database(case["db"])
            if case["command"] == "query":
                case["expected"] = _verdict_text(oracles.topdown_answer(rulebase, db, case["query"]))
            else:
                case["expected"] = (_rows_text(oracles.topdown_rows(rulebase, db, case["query"])), 0)
        selected.setdefault(case["label"], Session(rulebase).engine_name)
    return {"inputs": inputs, "selected": selected}


def _child(args: list[str]) -> tuple[str, int, float, float]:
    """Run a fresh interpreter with ``args``; returns its output, exit
    code, CPU time (user and system, see :class:`~perfbench.harness.Timer`
    for why) and peak RSS in MB.  It is waited for without a timeout,
    because waiting with one polls; a timer kills a hung child instead."""
    proc = subprocess.Popen([sys.executable, *args], stdout=subprocess.PIPE, env=python_env(), text=True)
    guard = threading.Timer(120, proc.kill)
    guard.start()
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        guard.cancel()
        proc.stdout.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return out, proc.returncode, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


def _fresh_interpreter(code: str) -> float:
    _, status, cpu, _ = _child(["-c", code])
    if status:
        raise subprocess.CalledProcessError(status, code)
    return cpu


def setup_once(ctx: dict | None = None) -> float:
    """A fresh interpreter importing ``repro.cli``."""
    return _fresh_interpreter("import repro.cli")


def measure_setup(ctx: dict) -> list[float]:
    """Several set-ups; the first, untimed, leaves the byte-code
    cache behind."""
    setup_once()
    return [setup_once() for _ in range(SETUP_REPEATS)]


def _process_peak_mb(case: dict, phase: Phase) -> float:
    """Peak RSS of a fresh ``hypodatalog`` process on ``case``: the
    whole process the evaluation needs, and nothing of the benchmark's.
    Its output is checked too."""
    out, status, _, peak = _child(["-m", "repro.cli", *case["argv"]])
    phase.verdict((out, status) == case["expected"],
                  f"fresh process {case['argv']}: got {(out, status)!r}, want {case['expected']!r}")
    return peak


def _invoke(main, argv) -> tuple[int, str]:
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


def run_phase(ctx: dict, seconds: float, spans: Spans | None) -> Phase:
    from repro.cli import main

    cases = ctx["inputs"]["cases"]
    phase = Phase()
    phase.selected = dict(ctx["selected"])
    for case in {c["label"]: c for c in cases}.values():  # warm-up: lazy imports, untimed
        _invoke(main, case["argv"])
    registries = []
    phase.start_memory()
    running = clock(seconds, phase, setup_once if spans is None else None, SETUP_EVERY)
    for op, index in enumerate(ctx["inputs"]["stream"]):
        if not running():
            break
        case = cases[index]
        sp = every_other(spans, op)
        with Timer() as timer:
            try:
                code, out = traced(sp, "cli.main", op, _invoke, main, case["argv"])
                error = None
            except Exception as exc:  # a crash is a failed operation
                code, out, error = None, "", exc
        phase.record("read", timer, sp is not None)
        ok = error is None and (out, code) == case["expected"]
        what = f"{case['label']} {case['command']} {case['query']!r}"
        phase.verdict(ok, f"{what}: got {(out, code, error)!r}, want {case['expected']!r}")
        if sp is not None:
            registries.append(_replay(case, op, sp))
    phase.end_memory(spans)
    if spans is None:
        largest = sorted(cases, key=lambda c: -len(c["rules"]) - len(c["db"]))[:RSS_CASES]
        phase.rss_peak_mb = median(_process_peak_mb(case, phase) for case in largest)
    phase.counters = engine_counters({}, counter_totals(registries), len(registries))
    return phase


def _parse_both(parse_program, parse_premise, case):
    return parse_program(case["rules"]), parse_premise(case["query"])


def _replay(case: dict, op: int, spans: Spans):
    """The calls ``cli.main`` makes, one layer at a time, on the same
    inputs; returns the engine's metrics registry."""
    from repro import Session, is_linearly_stratified, parse_database, parse_premise, parse_program

    rulebase, _ = spans.call("core.parse", op, _parse_both, parse_program, parse_premise, case)
    db = spans.call("core.db_load", op, parse_database, case["db"])
    spans.call("analysis.stratify", op, is_linearly_stratified, rulebase)
    session = spans.call("engine.session", op, Session, rulebase)
    if case["command"] == "query":
        spans.call("engine.ask", op, session.ask, db, case["query"])
    else:
        spans.call("engine.answers", op, session.answers, db, case["query"])
    return session.metrics


_REPEAT_SCRIPT = """
import io, json, sys, time
from contextlib import redirect_stdout, redirect_stderr
from repro.cli import main
groups, calls = json.loads(sys.stdin.read())
ratios = []
with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
    for warm, targets in groups:
        for argv in warm:
            main(argv)
        for argv in targets:
            times = []
            for _ in range(calls + 1):
                started = time.thread_time()
                main(argv)
                times.append(time.thread_time() - started)
            ratios.append(sorted(times[1:])[calls // 2] / times[0])
print(json.dumps(ratios))
"""


def repeat_ratios(cases: list[dict]) -> list[float]:
    """In a fresh interpreter, per rulebase label: a few calls on other
    cases of the label warm its code paths; then each of a few cases
    is called once and again.  Returns, per case, the median time of
    the repeated calls over the time of its first call."""
    labels: dict[str, list[dict]] = {}
    for case in cases:
        labels.setdefault(case["label"], []).append(case)
    groups = [
        ([c["argv"] for c in group[:REPEAT_WARM]],
         [c["argv"] for c in group[REPEAT_WARM:REPEAT_WARM + REPEAT_CASES]])
        for group in labels.values()
    ]
    out = subprocess.run(
        [sys.executable, "-c", _REPEAT_SCRIPT], input=json.dumps([groups, REPEAT_CALLS]),
        env=python_env(), capture_output=True, text=True, check=True, timeout=120,
    )
    return json.loads(out.stdout)


def layers(ctx: dict, phase: Phase, spans: Spans) -> dict[str, float]:
    """Per-layer numbers of the traced phase, plus the import cost and
    the repeat check."""
    main = spans.per_op("cli.main")
    calls = ("core.parse", "core.db_load", "engine.session", "engine.ask", "engine.answers")
    parts = [spans.per_op(name) for name in calls]
    cli_self = [main[op] - sum(part.get(op, 0.0) for part in parts) for op in main]

    bare = [_fresh_interpreter("pass") for _ in range(SETUP_REPEATS)]
    imported = [_fresh_interpreter("import repro.cli") for _ in range(SETUP_REPEATS)]

    ratio = median(repeat_ratios(ctx["inputs"]["cases"]))
    phase.verdict(
        ratio >= REPEAT_FLOOR,
        f"repeated CLI calls take {ratio:.2f} of the first call on the same inputs "
        f"(floor {REPEAT_FLOOR}): module-level state survives between calls",
    )
    return {
        "cli.import_ms": (median(imported) - median(bare)) * 1e3,
        "cli.self_ms": median(cli_self) * 1e3,
        "cli.repeat_ratio": ratio,
    }
