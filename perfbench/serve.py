"""The server layer: ``hypodatalog serve`` in a subprocess, over TCP.

Measured in the traced run of ``churn``, after its timed phase.  The
server runs with its defaults over the university rulebase of Example 1
and a generated base enrolment.  The benchmark replays a seeded stream
closed-loop over one connection, sending each request when the
previous one is answered, so that no round trip waits behind another
request and what it adds to the engine's time is the server's own.
Virtual clients are named sessions that open, run a few operations and
close; the mix is ``query`` with ``assume``, ``answers``,
``assert``/``retract``, ``subscribe`` and ``ping``.  Every response is
checked.  The first requests are then
replayed in-process on local ``ClientSession`` objects, so that a round
trip splits into server overhead and engine time.

Only per-layer numbers come from here: with client and server both busy
on a small host, end-to-end server latencies follow the host's speed
too closely to hold a bound.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import subprocess
import sys
import time

from . import oracles
from .harness import WORK, Phase, Spans, median, python_env
from .inputs import CORE_COURSES, ELECTIVES, enrolment, example_text, facts_text, rng_for

STUDENTS = 30
CLIENT_OPS = 10
PING_SHARE = 0.1
MIX = (("query", 0.6), ("answers", 0.15), ("assert", 0.08), ("retract", 0.08), ("subscribe", 0.09))
REQUESTS = 1500
#: Server starts timed; the last one serves the requests.
STARTS = 3
REPLAY_REQUESTS = 600
READS = ("query", "answers")
REFUSED = ("overloaded", "rate-limited", "exhausted")

SERVER_LAYER = {
    "server.start_ms": "ms",
    "server.ping_rtt_ms": "ms",
    "server.overhead_ms": "ms",
    "server.open_rtt_ms": "ms",
    "server.first_query_ms": "ms",
    "server.refused_share": "share",
}


def _client_script(rng, name: str, students: list[str], takes: set) -> list[dict]:
    """One virtual client's requests with the responses they must get.

    The server applies a connection's requests in order, so the
    session's view (base plus its own asserts minus its retracts) is
    known at every request.
    """
    view = set(takes)
    script = [{"op": "session.open", "session": name, "expect": {"session": name}}]
    subscribed = False
    for _ in range(CLIENT_OPS):
        roll, op = rng.random(), MIX[-1][0]
        for candidate, share in MIX:
            if roll < share:
                op = candidate
                break
            roll -= share
        who = rng.choice(students)
        course = rng.choice(CORE_COURSES + ELECTIVES[:3])
        text = f"take({who}, {course})"
        if op == "query":
            after = oracles.graduates(view | {(who, course)})
            script.append({"op": "query", "session": name, "query": f"grad({who})", "assume": [text],
                           "expect": {"answer": who in after}})
        elif op == "answers":
            rows = sorted([[s] for s in oracles.graduates(view)], key=str)
            script.append({"op": "answers", "session": name, "pattern": "grad(S)", "expect": {"rows": rows}})
        elif op == "assert":
            added = int((who, course) not in view)
            view.add((who, course))
            script.append({"op": "assert", "session": name, "facts": [text],
                           "expect": {"added": added, "session": name}})
        elif op == "retract":
            who, course = rng.choice(sorted(view)) if view else (who, course)
            removed = int((who, course) in view)
            view.discard((who, course))
            script.append({"op": "retract", "session": name, "facts": [f"take({who}, {course})"],
                           "expect": {"removed": removed, "session": name}})
        elif not subscribed:
            subscribed = True
            rows = sorted([[s] for s in oracles.graduates(view)], key=str)
            script.append({"op": "subscribe", "session": name, "pattern": "grad(S)", "watch": "w",
                           "expect": {"watch": "w", "session": name, "rows": rows}})
    script.append({"op": "session.close", "session": name, "expect": {"closed": name}})
    return script


def make_inputs(seed: int) -> dict:
    """Rules, base database, and the requests with their expected
    results.  A virtual client's script runs to its end before the
    next client opens; pings come in between."""
    rng = rng_for(seed, "serve")
    students, takes = enrolment(rng, STUDENTS, 0.6)
    facts = [("student", s) for s in students] + [("take", s, c) for s, c in takes]
    script: list[dict] = []
    serial = 0
    stream = []
    while len(stream) < REQUESTS:
        if rng.random() < PING_SHARE:
            stream.append({"op": "ping", "expect": {"pong": True}})
            continue
        if not script:
            serial += 1
            script = _client_script(rng, f"vc{serial}", students, set(takes))
        stream.append(script.pop(0))
    return {"rules": example_text("graduation.dl"), "db": facts_text(facts), "stream": stream}


def _matches(request: dict, response: dict) -> bool:
    if not response.get("ok"):
        return False
    result = response["result"]
    return all(result.get(key) == value for key, value in request["expect"].items())


# -- the server process ---------------------------------------------------


def _spawn(rules_path: str, db_path: str) -> tuple[subprocess.Popen, int, float]:
    """Start a server; returns it, its port and the time from spawning
    it to its first ``ping`` reply."""
    started = time.perf_counter()
    log = open(os.path.join(WORK, "serve.log"), "ab")
    try:
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", rules_path, "-d", db_path, "--port", "0"],
            stdout=subprocess.PIPE, stderr=log, env=python_env(),
        )
    finally:
        log.close()
    try:
        line = proc.stdout.readline().decode()
        if not line.startswith("listening on "):
            raise RuntimeError(f"server did not start: {line!r}")
        port = int(line.rsplit(":", 1)[1])
        asyncio.run(_ping(port))
    except BaseException:
        _stop(proc)
        raise
    return proc, port, time.perf_counter() - started


async def _ping(port: int) -> None:
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(b'{"id": 0, "op": "ping"}\n')
        reply = json.loads(await reader.readline())
        if not reply.get("ok"):
            raise RuntimeError(f"ping failed: {reply!r}")
    finally:
        writer.close()
        await writer.wait_closed()


def _stop(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=15)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=15)
    proc.stdout.close()


# -- load -----------------------------------------------------------------


class _Sent:
    __slots__ = ("position", "request", "sent", "received", "response")

    def __init__(self, position: int, request: dict) -> None:
        self.position, self.request = position, request
        self.sent = self.received = 0.0
        self.response: dict | None = None


async def _drive(port: int, stream: list) -> list[_Sent]:
    """Send the requests one at a time, each when the previous one is
    answered; pushed watch events are skipped."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port, limit=1 << 22)
    try:
        return await _send(reader, writer, stream)
    finally:
        writer.close()


async def _send(reader, writer, stream: list) -> list[_Sent]:
    out = []
    for position, request in enumerate(stream, 1):
        record = _Sent(position, request)
        frame = {key: value for key, value in request.items() if key != "expect"}
        frame["id"] = position
        record.sent = time.perf_counter()
        writer.write((json.dumps(frame) + "\n").encode())
        while True:
            line = await reader.readline()
            if not line:
                return out
            reply = json.loads(line)
            if "event" not in reply:
                break
        record.received, record.response = time.perf_counter(), reply
        out.append(record)
    return out


def measure(seed: int, phase: Phase, spans: Spans) -> dict[str, float]:
    """Start the server a few times, drive it, check every response
    into ``phase`` and return the server layer's numbers."""
    inputs = make_inputs(seed)
    os.makedirs(WORK, exist_ok=True)
    rules_path, db_path = os.path.join(WORK, "serve.dl"), os.path.join(WORK, "serve.db")
    with open(rules_path, "w", encoding="utf-8") as handle:
        handle.write(inputs["rules"])
    with open(db_path, "w", encoding="utf-8") as handle:
        handle.write(inputs["db"])
    starts = []
    for k in range(STARTS):
        proc, port, elapsed = _spawn(rules_path, db_path)
        starts.append(elapsed)
        try:
            if k == STARTS - 1:
                records = asyncio.run(_drive(port, inputs["stream"]))
        finally:
            _stop(proc)
    answered = {record.position for record in records}
    for position, request in enumerate(inputs["stream"], 1):
        if position not in answered:
            phase.verdict(False, f"{request['op']}: no response")
    for record in records:
        spans.add("server.request", record.sent, record.received, record.position)
        response = record.response
        ok = response.get("id") == record.position and _matches(record.request, response)
        phase.verdict(ok, f"{json.dumps(record.request)[:160]}: got {json.dumps(response)[:200]}")
    phase.selected["server"] = next(
        (r.response["result"]["engine"] for r in records
         if r.request["op"] == "session.open" and r.response.get("ok")),
        "unknown",
    )

    def rtts(op):
        return [r.received - r.sent for r in records if r.request["op"] == op]

    first_query, seen = [], set()
    for r in records:
        name = r.request.get("session")
        if r.request["op"] in READS and name not in seen:
            seen.add(name)
            first_query.append(r.received - r.sent)
    refused = sum(1 for r in records if not r.response.get("ok")
                  and r.response.get("error", {}).get("code") in REFUSED)
    overhead = [r.received - r.sent - own for r, own in _replay(inputs, records[:REPLAY_REQUESTS])]
    return {
        "server.start_ms": median(starts) * 1e3,
        "server.ping_rtt_ms": median(rtts("ping")) * 1e3,
        "server.overhead_ms": median(overhead) * 1e3,
        "server.open_rtt_ms": median(rtts("session.open")) * 1e3,
        "server.first_query_ms": median(first_query) * 1e3,
        "server.refused_share": refused / len(inputs["stream"]),
    }


def _replay(inputs: dict, records: list) -> list[tuple[_Sent, float]]:
    """Replay requests in order on local sessions; returns (record,
    in-process seconds) for each read."""
    from repro import parse_database, parse_program
    from repro.server.sessions import ClientSession, SharedRulebase

    shared = SharedRulebase(parse_program(inputs["rules"]), parse_database(inputs["db"]))
    sessions = {}
    out = []
    for record in records:
        request, op = record.request, record.request["op"]
        if not record.response.get("ok") or op == "ping":
            continue
        name = request.get("session")
        if op == "session.open":
            sessions[name] = ClientSession(shared, name)
            continue
        session = sessions.get(name)
        if session is None:
            continue
        if op == "session.close":
            del sessions[name]
        elif op in READS:
            call, arg = (session.ask, request["query"]) if op == "query" else (session.answers, request["pattern"])
            started = time.perf_counter()
            call(arg, assume=request.get("assume"))
            out.append((record, time.perf_counter() - started))
        elif op == "subscribe":
            session.watch(request["pattern"], name=request["watch"])
        else:
            (session.assert_facts if op == "assert" else session.retract_facts)(request["facts"])
            session.refresh_watches()
    return out
