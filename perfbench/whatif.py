"""``whatif``: hypothetical ``[add:]`` questions to long-lived sessions.

One ``Session`` per paper rulebase (Examples 1-3 university, Example 6
parity, Examples 7-8 Hamiltonian on graphs with and without a path,
and colouring), driven by one closed-loop client that asks each of
them equally often.  A seeded stream of ``ask`` and ``answers``
what-ifs: ``REPEAT_SHARE`` of them repeat a small hot set and hit the
memo; the rest are fresh, each hypothesising a child database whose
content no earlier what-if produced, so the median operation is engine
work rather than a memo lookup.  There are no writes; the engine does
nearly all the work and the memo keeps growing, so memory shows.
"""

from __future__ import annotations

from . import oracles
from .harness import Phase, Spans, Timer, clock, counter_totals, engine_counters, every_other, traced
from .inputs import (
    CORE_COURSES, ELECTIVES, digraph, enrolment, example_text, fact, facts_text, graph, rng_for,
)

#: Share of what-ifs drawn from the hot set.  Below a half, so that the
#: median read is a fresh what-if and the memo hits show in throughput.
REPEAT_SHARE = 0.25
HOT_PER_SESSION = 12
UNIVERSITY_STUDENTS = 120
DEGREE_STUDENTS = 96
PARITY_SIZE = 3
GRAPHS = 60
GRAPH_NODES = 5
COLOR_GRAPHS = 100
#: Colouring searches grow fastest with the graph; on five nodes a few
#: of them would take most of the run.  Each graph has its own node
#: names, so that child databases of different graphs never coincide
#: and enough fresh ones remain for the stream.
COLOR_NODES = 4
STREAM = 14000
#: Operations after which the peak RSS is taken.
RSS_AT_OPS = 2000
SETUP_REPEATS = 5
#: Seconds between set-up samples during the run.
SETUP_EVERY = 1.0

SESSIONS = ("graduation", "degree", "parity", "hamiltonian", "coloring")
#: Sessions whose fresh ``ask`` what-ifs alternate between true and
#: false answers.  A refutation can cost far more time and memo than a
#: proof (on ``degree``, 35 times the memory), so a drawn mix would make
#: each seed weigh them anew.  Colouring what-ifs are all colourable:
#: a failed colouring search is exponential.
BALANCED = ("graduation", "degree", "parity", "hamiltonian")


def _named(k: int, nodes: list, edges: list) -> tuple[list, list]:
    """Graph ``k``'s own node names."""
    name = {n: f"g{k}{n}" for n in nodes}
    return [name[n] for n in nodes], [(name[a], name[b]) for a, b in edges]


def _databases(rng) -> dict:
    """Per session, the rule text and a list of databases, each with
    the plain data its oracle needs."""
    students, takes = enrolment(rng, UNIVERSITY_STUDENTS, 0.6)
    graduation = [{
        "facts": [("student", s) for s in students] + [("take", s, c) for s, c in takes],
        "students": students,
        "takes": takes,
    }]
    # Every one of the sixteen sets of degree courses is held by the same
    # number of students: the engine's work and memo per what-if depend
    # on that set, so a drawn mix would make each seed weigh them anew.
    courses = oracles.MATH + oracles.PHYS
    kinds = [frozenset(c for k, c in enumerate(courses) if mask >> k & 1) for mask in range(16)]
    order = kinds * (DEGREE_STUDENTS // 16)
    rng.shuffle(order)
    held = {f"s{i}": kind for i, kind in enumerate(order)}
    degree = [{
        "facts": [("take", s, c) for s in held for c in sorted(held[s])],
        "held": held,
        # Only students the database mentions: the top-down engine, which
        # auto picks for this rulebase, wrongly refutes what-ifs about a
        # constant that only the hypothesis introduces (pinned by
        # test_topdown_refutes_what_if_on_new_constant).
        "students": [s for s in held if held[s]],
    }]
    parity = [{"facts": [("a", f"x{i}") for i in range(PARITY_SIZE)], "size": PARITY_SIZE}]
    hamiltonian = []
    while len(hamiltonian) < GRAPHS:
        nodes, edges = _named(len(hamiltonian), *digraph(rng, GRAPH_NODES, 0.3))
        has_path = oracles.hamiltonian_path(nodes, edges)
        if has_path != (len(hamiltonian) % 2 == 0):
            continue  # alternate graphs with and without a path
        hamiltonian.append({
            "facts": [("node", n) for n in nodes] + [("edge", a, b) for a, b in edges],
            "nodes": nodes,
            "edges": edges,
        })
    coloring = []
    while len(coloring) < COLOR_GRAPHS:
        nodes, edges = _named(len(coloring), *graph(rng, COLOR_NODES, 0.4))
        if not oracles.colorable(nodes, edges, 3):
            continue  # a failed colouring search is exponential
        coloring.append({
            "facts": [("node", n) for n in nodes] + [("edge", a, b) for a, b in edges]
            + [("color", c) for c in ("r", "g", "b")],
            "nodes": nodes,
            "edges": edges,
        })
    return {
        "graduation": graduation,
        "degree": degree,
        "parity": parity,
        "hamiltonian": hamiltonian,
        "coloring": coloring,
    }


def _draw(rng, session: str, dbs: list, serial: int) -> dict:
    """One what-if on a database drawn from ``dbs``."""
    db = rng.randrange(len(dbs))
    data = dbs[db]
    if session == "graduation":
        students = data["students"]
        if rng.random() < 0.7:
            who = rng.choice(students)
            adds = [("take", who, c) for c in rng.sample(CORE_COURSES + ELECTIVES, rng.randrange(1, 3))]
            inner = ", ".join(fact(*a) for a in adds)
            return {"kind": "ask", "db": db, "query": f"grad({who})[add: {inner}]", "adds": adds, "goal": who}
        adds = [("take", rng.choice(students), rng.choice(CORE_COURSES + ELECTIVES)) for _ in range(2)]
        return {"kind": "answers", "db": db, "query": "grad(S)", "adds": adds}
    if session == "degree":
        who = rng.choice(data["students"])
        courses = rng.sample(oracles.MATH + oracles.PHYS + ELECTIVES[:8], rng.randrange(1, 3))
        adds = [("take", who, c) for c in courses]
        inner = ", ".join(fact(*a) for a in adds)
        query = f"grad({who}, mathphys)[add: {inner}]"
        return {"kind": "ask", "db": db, "query": query, "adds": adds, "goal": who}
    if session == "parity":
        adds = [("a", f"y{serial}_{i}") for i in range(rng.randrange(1, 3))]
        goal = rng.choice(("even", "odd"))
        inner = ", ".join(fact(*a) for a in adds)
        return {"kind": "ask", "db": db, "query": f"{goal}[add: {inner}]", "adds": adds, "goal": goal}
    nodes = data["nodes"]
    while True:
        adds = [("edge", *rng.sample(nodes, 2)) for _ in range(rng.randrange(1, 3))]
        if session != "coloring" or oracles.colorable(nodes, data["edges"] + [a[1:] for a in adds], 3):
            break
    inner = ", ".join(fact(*a) for a in adds)
    goal = rng.choice(("yes", "no")) if session == "hamiltonian" else "yes"
    return {"kind": "ask", "db": db, "query": f"{goal}[add: {inner}]", "adds": adds, "goal": goal}


def _key(session: str, dbs: list, op: dict):
    """The child database ``op`` creates: equal keys mean equal
    databases, which the engine's memo shares.  No two databases of a
    session have the same content, nor do their children, because
    graphs have their own node names."""
    return (session, op["db"], frozenset(op["adds"]) - dbs[op["db"]]["factset"])


def make_inputs(seed: int) -> dict:
    rng = rng_for(seed, "whatif")
    dbs = _databases(rng)
    texts = {
        "graduation": example_text("graduation.dl"),
        "degree": example_text("degree.dl"),
        "parity": example_text("parity.dl"),
        "hamiltonian": example_text("hamiltonian.dl") + "\nno :- ~yes.\n",
        "coloring": example_text("coloring.dl"),
    }
    for session in SESSIONS:
        for data in dbs[session]:
            data["factset"] = frozenset(data["facts"])
    serial = iter(range(10**9))
    hot = {s: [_draw(rng, s, dbs[s], next(serial)) for _ in range(HOT_PER_SESSION)] for s in SESSIONS}
    seen = {_key(s, dbs[s], op) for s in SESSIONS for op in hot[s]}
    asked = dict.fromkeys(BALANCED, 0)
    stream = []
    while len(stream) < STREAM:
        session = rng.choice(SESSIONS)
        if rng.random() < REPEAT_SHARE:
            stream.append((session, rng.choice(hot[session])))
            continue
        for _ in range(1000):  # a fresh what-if must create a new child database
            op = _draw(rng, session, dbs[session], next(serial))
            key = _key(session, dbs[session], op)
            if not key[2] or key in seen:
                continue
            if session in BALANCED and op["kind"] == "ask":
                if _expected(session, dbs[session][op["db"]], op) != (asked[session] % 2 == 0):
                    continue
                asked[session] += 1
            break
        else:
            raise RuntimeError(f"no fresh what-ifs left for {session}")
        seen.add(key)
        stream.append((session, op))
    return {"texts": texts, "dbs": dbs, "hot": hot, "stream": stream}


def _expected(session: str, data: dict, op: dict):
    adds = op["adds"]
    if session == "graduation":
        after = oracles.graduates(list(data["takes"]) + [(a[1], a[2]) for a in adds])
        return op["goal"] in after if op["kind"] == "ask" else {(s,) for s in after}
    if session == "degree":
        held = dict(data["held"])
        for _, who, course in adds:
            held[who] = held.get(who, frozenset()) | {course}
        if op["kind"] == "ask":
            return oracles.degree(held[op["goal"]], "mathphys")
        return {(s,) for s in held if oracles.degree(held[s], "mathphys")}
    if session == "parity":
        return oracles.even(data["size"] + len(adds)) == (op["goal"] == "even")
    edges = list(data["edges"]) + [(a[1], a[2]) for a in adds]
    if session == "hamiltonian":
        return oracles.hamiltonian_path(data["nodes"], edges) == (op["goal"] == "yes")
    return oracles.colorable(data["nodes"], edges, 3)


def prepare(inputs: dict) -> dict:
    """Database texts, and per operation of the stream its expected
    answer and the parsed atoms an ``answers`` what-if adds, so that
    nothing the benchmark owns grows during the timed run."""
    from repro import parse_atom

    def entry(name: str, op: dict) -> tuple:
        atoms = tuple(parse_atom(fact(*a)) for a in op["adds"]) if op["kind"] == "answers" else ()
        return _expected(name, inputs["dbs"][name][op["db"]], op), atoms

    db_texts = {s: [facts_text(d["facts"]) for d in inputs["dbs"][s]] for s in SESSIONS}
    # Hot what-ifs repeat the same object in the stream.
    by_id = {id(op): entry(name, op) for name in SESSIONS for op in inputs["hot"][name]}
    ops = [by_id[id(op)] if id(op) in by_id else entry(name, op) for name, op in inputs["stream"]]
    return {"inputs": inputs, "db_texts": db_texts, "ops": ops, "hot": by_id}


def _build(ctx: dict, spans: Spans | None):
    """Parse every rulebase and database and open one session each."""
    from repro import Session, is_linearly_stratified, parse_database, parse_program

    sessions, dbs = {}, {}
    for k, name in enumerate(SESSIONS):
        op = -1 - k
        rulebase = traced(spans, "core.parse", op, parse_program, ctx["inputs"]["texts"][name])
        dbs[name] = [traced(spans, "core.db_load", op, parse_database, t) for t in ctx["db_texts"][name]]
        if spans is not None:
            spans.call("analysis.stratify", op, is_linearly_stratified, rulebase)
        sessions[name] = traced(spans, "engine.session", op, Session, rulebase)
    return sessions, dbs


def setup_once(ctx: dict) -> float:
    with Timer() as timer:
        _build(ctx, None)
    return timer.cpu


def measure_setup(ctx: dict) -> list[float]:
    """Several set-ups; the first, untimed, also imports the program."""
    _build(ctx, None)
    return [setup_once(ctx) for _ in range(SETUP_REPEATS)]


def _run_op(session, db, op, atoms, spans, index):
    if op["kind"] == "ask":
        query = op["query"]
        if spans is not None:
            from repro import parse_premise

            query = spans.call("core.parse", index, parse_premise, query)
        return traced(spans, "engine.ask", index, session.ask, db, query)
    child = traced(spans, "core.db_update", index, db.with_facts, *atoms)
    return traced(spans, "engine.answers", index, session.answers, child, op["query"])


def run_phase(ctx: dict, seconds: float, spans: Spans | None) -> Phase:
    inputs = ctx["inputs"]
    sessions, dbs = _build(ctx, spans)
    phase = Phase()
    phase.selected = {name: s.engine_name for name, s in sessions.items()}
    for name in SESSIONS:  # warm-up: the hot set enters the memo, untimed
        for op in inputs["hot"][name]:
            _run_op(sessions[name], dbs[name][op["db"]], op, ctx["hot"][id(op)][1], None, -1)
    registries = [s.metrics for s in sessions.values()]
    before = counter_totals(registries)
    phase.start_memory()
    running = clock(seconds, phase, (lambda: setup_once(ctx)) if spans is None else None, SETUP_EVERY)
    for index, ((name, op), (want, atoms)) in enumerate(zip(inputs["stream"], ctx["ops"])):
        if not running():
            break
        sp = every_other(spans, index)
        args = (sessions[name], dbs[name][op["db"]], op, atoms, sp, index)
        with Timer() as timer:
            try:
                got = _run_op(*args)
            except Exception as exc:  # a crash is a failed operation
                got = exc
        phase.record("read", timer, sp is not None)
        phase.peak_rss_at(RSS_AT_OPS)
        if got != want:
            what = f"{name} {op['kind']} {op['query']!r} adds={op['adds']}"
            phase.verdict(False, f"{what}: got {got!r}, want {want!r}")
        else:
            phase.verdict(True, "")
    phase.counters = engine_counters(before, counter_totals(registries), len(phase.latencies))
    phase.peak_rss_at(-1)
    phase.end_memory(spans)
    return phase
