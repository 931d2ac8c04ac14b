"""``churn``: single-fact writes beside reads on one long-lived session.

One ``Session`` over reachability and graduation rules answers for two
databases, reachability chains and an enrolment.  A seeded stream of
balanced single-fact retracts and re-asserts runs against them; each
mutation is followed by ``refresh`` of a standing query on an unbound
pattern of the part it changed, then by a bound read.  The database
update paths and the incremental paths do the work, so a change to
engine routing or incrementality shows here, while ``whatif`` shows
what it costs reads.  The traced run also measures the server layer
(:mod:`perfbench.serve`).
"""

from __future__ import annotations

from . import oracles, serve
from .harness import Phase, Spans, Timer, clock, counter_totals, engine_counters, every_other, traced
from .inputs import chain_edges, enrolment, fact, facts_text, rng_for

RULES = """\
reach(X, Y) :- edge(X, Y).
reach(X, Y) :- edge(X, Z), reach(Z, Y).
grad(S) :- take(S, his101), take(S, eng201), take(S, cs250).
"""
CHAINS = 4
CHAIN_LENGTH = 6
STUDENTS = 100
#: At most this many facts of each part are retracted at once, so the
#: stream stays balanced around the generated databases.
MAX_OUT = 3
#: Share of mutations on the chains; reads and writes on the two parts
#: cost different amounts, and an even split would put the medians in
#: the gap between them.
CHAIN_SHARE = 0.7
STREAM = 20000
#: Operations after which the peak RSS is taken.
RSS_AT_OPS = 2500
SETUP_REPEATS = 5
#: Seconds between set-up samples during the run.
SETUP_EVERY = 1.0
WATCHED = {"chains": "reach(X, Y)", "enrolment": "grad(S)"}


def make_inputs(seed: int) -> dict:
    rng = rng_for(seed, "churn")
    edges = chain_edges(CHAINS, CHAIN_LENGTH)
    students, takes = enrolment(rng, STUDENTS, 0.7)
    base = {
        "chains": [("edge", a, b) for a, b in edges],
        "enrolment": [("take", s, c) for s, c in takes],
    }
    out = {part: [] for part in base}
    stream = []
    for _ in range(STREAM):
        part = "chains" if rng.random() < CHAIN_SHARE else "enrolment"
        gone = out[part]
        if gone and (len(gone) >= MAX_OUT or rng.random() < 0.5):
            change = ("assert", gone.pop(rng.randrange(len(gone))))
        else:
            item = rng.choice([f for f in base[part] if f not in gone])
            gone.append(item)
            change = ("retract", item)
        if part == "chains":
            c = rng.randrange(CHAINS)
            read = f"reach(c{c}_0, c{c}_{CHAIN_LENGTH - 1})"
        else:
            read = f"grad({rng.choice(students)})"
        stream.append((part, change, read))
    return {"base": base, "stream": stream, "seed": seed}


def _answers(part: str, facts: set) -> frozenset:
    """What the watched pattern should hold over ``facts``."""
    if part == "chains":
        return oracles.reach_pairs((f[1], f[2]) for f in facts)
    return frozenset((s,) for s in oracles.graduates((f[1], f[2]) for f in facts))


def _read_answer(read: str, truth: frozenset) -> bool:
    """A bound read holds when its arguments are in the watched set."""
    return tuple(read[read.index("(") + 1 : -1].split(", ")) in truth


def prepare(inputs: dict) -> dict:
    """Database texts, the parsed atoms of every mutation, and per
    operation the diff the refresh must give and the bound read's
    answer, so that nothing the benchmark owns grows during the timed
    run."""
    from repro import parse_atom

    state = {p: set(f) for p, f in inputs["base"].items()}
    truth = {p: _answers(p, state[p]) for p in state}
    atoms, expected = {}, []
    for part, (action, item), read in inputs["stream"]:
        if item not in atoms:
            atoms[item] = parse_atom(fact(*item))
        (state[part].add if action == "assert" else state[part].discard)(item)
        old, truth[part] = truth[part], _answers(part, state[part])
        expected.append(((truth[part] - old, old - truth[part]), _read_answer(read, truth[part])))
    return {
        "inputs": inputs,
        "db_texts": {p: facts_text(f) for p, f in inputs["base"].items()},
        "atoms": atoms,
        "expected": expected,
    }


def _build(ctx: dict, spans: Spans | None):
    from repro import Session, is_linearly_stratified, parse_database, parse_program

    rulebase = traced(spans, "core.parse", -1, parse_program, RULES)
    dbs = {p: traced(spans, "core.db_load", -1, parse_database, t) for p, t in ctx["db_texts"].items()}
    if spans is not None:
        spans.call("analysis.stratify", -1, is_linearly_stratified, rulebase)
    session = traced(spans, "engine.session", -1, Session, rulebase)
    return session, dbs


def setup_once(ctx: dict) -> float:
    with Timer() as timer:
        _build(ctx, None)
    return timer.cpu


def measure_setup(ctx: dict) -> list[float]:
    """Several set-ups; the first, untimed, also imports the program."""
    _build(ctx, None)
    return [setup_once(ctx) for _ in range(SETUP_REPEATS)]


def run_phase(ctx: dict, seconds: float, spans: Spans | None) -> Phase:
    from repro import parse_premise

    session, dbs = _build(ctx, spans)
    phase = Phase()
    phase.selected = {"reach+grad": session.engine_name}
    watches = {p: session.watch(pattern) for p, pattern in WATCHED.items()}
    for p, watch in watches.items():  # the subscriber starts from the full answer set
        watch.refresh(dbs[p])
    atoms = ctx["atoms"]
    before = counter_totals([session.metrics])
    phase.start_memory()
    running = clock(seconds, phase, (lambda: setup_once(ctx)) if spans is None else None, SETUP_EVERY)
    stream = zip(ctx["inputs"]["stream"], ctx["expected"])
    for index, ((part, (action, item), read), (want_diff, want_read)) in enumerate(stream):
        if not running():
            break
        change = dbs[part].with_facts if action == "assert" else dbs[part].without_facts
        sp = every_other(spans, index)
        with Timer() as timer:
            try:
                db = traced(sp, "core.db_update", index, change, atoms[item])
                diff = traced(sp, "engine.refresh", index, watches[part].refresh, db)
            except Exception as exc:  # a crash is a failed operation
                db, diff = None, exc
        phase.record("write", timer, sp is not None)
        if db is not None:
            dbs[part] = db
        ok = not isinstance(diff, Exception) and (diff.added, diff.removed) == want_diff
        phase.verdict(ok, f"{action} {item}: refresh gave {diff!r}, want {want_diff!r}")

        with Timer() as timer:
            try:
                query = read if sp is None else sp.call("core.parse", index, parse_premise, read)
                got = traced(sp, "engine.ask", index, session.ask, dbs[part], query)
            except Exception as exc:  # a crash is a failed operation
                got = exc
        phase.record("read", timer, sp is not None)
        phase.peak_rss_at(RSS_AT_OPS)
        phase.verdict(got == want_read, f"ask {read!r} after {action} {item}: got {got!r}, want {want_read!r}")
    phase.counters = engine_counters(before, counter_totals([session.metrics]), len(phase.latencies))
    phase.peak_rss_at(-1)
    phase.end_memory(spans)
    return phase


def layers(ctx: dict, phase: Phase, spans: Spans) -> dict[str, float]:
    """The server layer, measured after the traced phase."""
    return serve.measure(ctx["inputs"]["seed"], phase, spans)
