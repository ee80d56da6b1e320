"""The three workloads.

Each runs a fixed number of operations, set by ``--seconds`` through a
calibrated rate and never by a clock, because the program's retained
state grows with lifetime traffic: per-op cost and memory depend on how
many operations ran.  Each op type has a role that names the metrics it
feeds (``main``, ``second``, ``third``); the role is fixed by the input,
never by what the program did:

=============  ========================  ======================  ====================
workload       main                      second                  third
=============  ========================  ======================  ====================
chain-update   bulk global update        repeat global update    local read at N0
read-write     fresh network read        repeat network read     one-row write
gateway-mix    query via the gateway     update via the gateway  ``GET /metrics``
=============  ========================  ======================  ====================

Every op's output is checked, off the clock, against answers computed
in plain Python from the seeded inputs (:mod:`codbbench.inputs`).  An op
that raises or returns a wrong answer counts as failed.
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import re
import select
import signal
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from codbbench import inputs, measure
from codbbench.tracing import Tracer, install_layers, layer_counts

ROOT = Path(__file__).resolve().parent.parent
TRACE_DIR = ROOT / ".bench_trace"

ROLES = ("main", "second", "third")


@dataclass
class Run:
    """What one workload run measured."""

    #: Every attempted op in order: (role, seconds, whether it succeeded).
    ops: list[tuple[str, float, bool]] = field(default_factory=list)
    #: Speed probes (see measure.probe): one before the first interval of
    #: ``per_interval`` ops and one after every interval.
    probes: list[float] = field(default_factory=list)
    per_interval: int = 1
    #: The probe's duration on a calm machine (see measure.speed_scaled).
    reference_s: float = measure.PROBE_REFERENCE_S
    #: Wall time each interval's ops took.
    intervals: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    #: False once any op returned a wrong answer or a whole-run check
    #: failed; ops that raised only count as failed.
    correct: bool = True
    setup_s: list[float] = field(default_factory=list)
    messages: int = 0
    bytes: int = 0
    peak_rss_mb: float = 0.0
    cpu_s: float = 0.0
    #: Traced runs only: layer totals, retained state and op-type counts
    #: the per-layer ratios divide by.
    layers: dict[str, dict[str, float]] = field(default_factory=dict)
    retained: dict[str, int] = field(default_factory=dict)
    gc_pause_s: float = 0.0
    rows_imported: int = 0
    messages_by_kind: dict[str, int] = field(default_factory=dict)
    client_ms: dict[str, list[float]] = field(default_factory=dict)

    def samples(self, *, scaled: bool = True) -> dict[str, list[float]]:
        """Seconds per succeeded op, by role; scaled to the probe's
        reference speed where probes were taken."""
        durations = [seconds for _, seconds, _ in self.ops]
        if scaled:
            durations = measure.speed_scaled(
                durations, self.probes, self.reference_s, per=self.per_interval
            )
        by_role: dict[str, list[float]] = {role: [] for role in ROLES}
        for (role, _, ok), seconds in zip(self.ops, durations):
            if ok:
                by_role[role].append(seconds)
        return by_role

    def fail(self, what: str, *, wrong: bool) -> None:
        self.failed += 1
        if wrong:
            self.correct = False
        print(f"FAILED {what}", file=sys.stderr)


def _op(run: Run, tracer: Tracer | None, index: int, role: str, call):
    """Time one op between two speed probes; returns its result, or
    ``None`` when it raised."""
    if not run.probes:
        run.probes.append(measure.probe())
    run.attempted += 1
    if tracer is not None:
        tracer.request_id = index
        tracer.active = True
    cpu_started = time.process_time()
    started = time.perf_counter()
    try:
        result, error = call(), ""
    except Exception:  # an op that raises is a failed op, not a crash
        result, error = None, traceback.format_exc()
    elapsed = time.perf_counter() - started
    run.cpu_s += time.process_time() - cpu_started
    if tracer is not None:
        tracer.active = False
    run.probes.append(measure.probe())
    run.ops.append((role, elapsed, not error))
    run.intervals.append(elapsed)
    if error:
        run.fail(f"op {index} ({role}):\n{error}", wrong=False)
    return result


def _set_up(run: Run, build):
    """Time one set-up between two speed probes, scaled like the ops."""
    before = measure.probe()
    started = time.perf_counter()
    built = build()
    elapsed = time.perf_counter() - started
    speed = (before + measure.probe()) / 2
    run.setup_s.append(elapsed * measure.PROBE_REFERENCE_S / speed)
    return built


def _start_trace(tracer: Tracer | None) -> None:
    if tracer is not None:
        install_layers(tracer)


def _finish_trace(run: Run, tracer: Tracer | None, network, name: str, seed: int) -> None:
    """Collect an in-process traced run: layer totals, retained state,
    and the spans, written under ``.bench_trace/``."""
    if tracer is None:
        return
    run.layers = tracer.totals()
    run.gc_pause_s = tracer.gc_pause_s
    run.retained = layer_counts(network)
    tracer.write_spans(TRACE_DIR / f"{name}-{seed}.jsonl")
    tracer.uninstall()


def _build_chain(network_cls, data: inputs.ChainData, seed: int):
    network = network_cls(seed=seed)
    for index, rows in enumerate(data.rows):
        network.add_node(inputs.node_name(index), inputs.ITEM_SCHEMA)
        network.node(inputs.node_name(index)).load_facts({"item": rows})
    network.add_rules(inputs.chain_rules(data.size))
    network.start()
    return network


def _counters(network) -> tuple[int, int, dict[str, int]]:
    stats = network.transport.stats
    return stats.messages_sent, stats.bytes_sent, dict(stats.by_kind)


def _add_traffic(run: Run, before, after) -> None:
    run.messages += after[0] - before[0]
    run.bytes += after[1] - before[1]
    for kind, count in after[2].items():
        delta = count - before[2].get(kind, 0)
        if delta:
            run.messages_by_kind[kind] = run.messages_by_kind.get(kind, 0) + delta


# ----------------------------------------------------------------------
# chain-update: the §4 bulk global update
# ----------------------------------------------------------------------

CHAIN_SIZE = 8
CHAIN_ROWS = 300
CHAIN_OVERLAP = 0.25
#: Rounds per second of ``--seconds``; every round is one bulk update,
#: one repeat update and one local read.
CHAIN_ROUNDS_PER_S = 3.2
#: The tail needs at least this many bulk updates.
CHAIN_MIN_ROUNDS = measure.MIN_TAIL_SAMPLES


def chain_update(seed: int, seconds: int, tracer: Tracer | None) -> Run:
    from repro import CoDBNetwork

    run = Run()
    _start_trace(tracer)
    data = inputs.ChainData(seed, CHAIN_SIZE, CHAIN_ROWS, CHAIN_OVERLAP)
    expected = [data.downstream_union(i) for i in range(CHAIN_SIZE)]
    own = [set(rows) for rows in data.rows]
    full_scan = inputs.TEMPLATES[0][0]
    rounds = max(CHAIN_MIN_ROUNDS, round(seconds * CHAIN_ROUNDS_PER_S))
    head = inputs.node_name(0)
    for round_index in range(rounds):
        network = _set_up(run, lambda: _build_chain(CoDBNetwork, data, seed))
        # Garbage the previous round left is collected here, off the
        # clock, not inside the next timed update.
        gc.collect()
        before = _counters(network)
        op = 3 * round_index
        bulk = _op(run, tracer, op, "main", lambda: network.global_update(head))
        repeat = _op(run, tracer, op + 1, "second", lambda: network.global_update(head))
        local = _op(
            run, tracer, op + 2, "third",
            lambda: network.query(head, full_scan, cache=False),
        )
        _add_traffic(run, before, _counters(network))
        if bulk is not None:
            run.rows_imported += bulk.rows_imported
            imported = {
                name: report.rows_imported
                for name, report in bulk.report.node_reports.items()
            }
            wrong = [
                name
                for index, name in enumerate(map(inputs.node_name, range(CHAIN_SIZE)))
                if set(network.node(name).rows("item")) != expected[index]
                or imported.get(name, 0) != len(expected[index] - own[index])
            ]
            if wrong:
                run.fail(
                    f"round {round_index}: wrong rows held or imported at {wrong}",
                    wrong=True,
                )
        if repeat is not None and repeat.rows_imported != 0:
            run.fail(f"round {round_index}: the repeat update imported rows", wrong=True)
        if local is not None and sorted(local) != sorted(expected[0]):
            run.fail(f"round {round_index}: the local read is wrong", wrong=True)
        if round_index == rounds - 1:
            _finish_trace(run, tracer, network, "chain-update", seed)
        network.stop()
        del network, bulk, repeat, local
    run.peak_rss_mb = measure.own_peak_rss_mb()
    return run


# ----------------------------------------------------------------------
# read-write: cached reads beside writes that invalidate them
# ----------------------------------------------------------------------

RW_SIZE = 5
RW_ROWS = 100
RW_OVERLAP = 0.25
RW_OPS_PER_S = 40
RW_MIN_OPS = 400
RW_SETUPS = 5


def read_write(seed: int, seconds: int, tracer: Tracer | None) -> Run:
    from repro import CoDBNetwork

    run = Run()
    _start_trace(tracer)
    data = inputs.ChainData(seed, RW_SIZE, RW_ROWS, RW_OVERLAP)
    head = inputs.node_name(0)

    def set_up():
        network = _build_chain(CoDBNetwork, data, seed)
        network.global_update(head)
        return network

    network = None
    for _ in range(RW_SETUPS):
        if network is not None:
            network.stop()
        network = _set_up(run, set_up)
    gc.collect()
    count = max(RW_MIN_OPS, round(seconds * RW_OPS_PER_S))
    ops = inputs.read_write_ops(seed, count, RW_SIZE - 1)
    loaded = data.downstream_union(0)
    read_since_write: set[int] = set()
    before = _counters(network)
    for index, op in enumerate(ops):
        if op[0] == "write":
            _, writer, row = op
            node = network.node(inputs.node_name(writer))

            def write(node=node, row=row):
                inserted = node.insert("item", row)
                network.run()
                return inserted

            inserted = _op(run, tracer, index, "third", write)
            if inserted is None:
                continue
            loaded.add(row)
            read_since_write.clear()
            if inserted is not True:
                run.fail(f"op {index}: write of {row} not inserted", wrong=True)
            continue
        template = op[1]
        role = "second" if template in read_since_write else "main"
        text = inputs.TEMPLATES[template][0]
        answer = _op(
            run, tracer, index, role,
            lambda: network.query(head, text, mode="network"),
        )
        if answer is None:
            continue
        read_since_write.add(template)
        if sorted(answer) != inputs.reference_answer(template, loaded):
            run.fail(f"op {index}: read of template {template} is wrong", wrong=True)
    _add_traffic(run, before, _counters(network))
    _finish_trace(run, tracer, network, "read-write", seed)
    network.stop()
    run.peak_rss_mb = measure.own_peak_rss_mb()
    return run


# ----------------------------------------------------------------------
# gateway-mix: the long-running front door over real sockets
# ----------------------------------------------------------------------

GW_NODES = 4
#: Each server serves this many ops and is then replaced by a fresh one:
#: state the program retains grows with every op (README.md), and over
#: one 2500-op lifetime query latency doubled.
GW_LIFETIME_OPS = 600
GW_LIFETIMES_PER_S = 0.16
GW_MIN_LIFETIMES = 3
GW_CLIENTS = 2
#: Ops per block; the schedule holds the mix's shares in every block.
GW_BLOCK = 10
#: Echo round trips in gateway-mix's probe, beside measure.probe(), and
#: that probe's duration on a calm machine.
GW_ECHO_ROUND_TRIPS = 5
GW_PROBE_REFERENCE_S = 0.006
GW_START_TIMEOUT_S = 60.0
GW_STOP_TIMEOUT_S = 60.0
GW_RESULT_WAIT_S = 30


class _Server:
    """A benchmark-owned server process (``python3 -m <module> <args>``)
    that prints ``READY <port> ...``; stopped and waited for on exit."""

    def __init__(self, module: str, *args: str) -> None:
        command = [sys.executable, "-m", module, *args]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([str(ROOT), str(ROOT / "src")])
        self.process = subprocess.Popen(
            command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True
        )
        self.port = 0
        #: Transport counters set-up left behind.
        self.baseline: dict = {}

    def wait_ready(self) -> None:
        ready, _, _ = select.select([self.process.stdout], [], [], GW_START_TIMEOUT_S)
        if not ready:
            raise RuntimeError(f"gateway server not ready in {GW_START_TIMEOUT_S} s")
        line = self.process.stdout.readline()
        if not line.startswith("READY "):
            raise RuntimeError(f"gateway server did not start: {line!r}")
        _, port, *rest = line.split(" ", 2)
        self.port = int(port)
        self.baseline = json.loads(rest[0]) if rest else {}

    def stop(self) -> dict:
        """SIGTERM (the gateway drains), then the final JSON line, if any."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
        try:
            out, _ = self.process.communicate(timeout=GW_STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.communicate()
            raise
        if self.process.returncode != 0:
            raise RuntimeError(f"server exited with {self.process.returncode}")
        lines = [line for line in out.splitlines() if line.startswith("{")]
        return json.loads(lines[-1]) if lines else {}

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
        self.process.communicate()


async def _socket_probe(port: int) -> float:
    """Seconds for a few connect-send-receive-close round trips to the
    echo server."""
    started = time.perf_counter()
    for _ in range(GW_ECHO_ROUND_TRIPS):
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        writer.write(b"probe\n")
        await writer.drain()
        await reader.readline()
        writer.close()
        await writer.wait_closed()
    return time.perf_counter() - started


async def _probe(echo_port: int) -> float:
    return measure.probe() + await _socket_probe(echo_port)


async def _drive(
    port: int, echo_port: int, ops: list[tuple], clients: int, block: int,
    probes: list[float],
) -> tuple[list[dict], list[float]]:
    """Closed-loop clients share the op sequence, a block of ops at a
    time; after every block, with the server idle, a speed probe is
    appended to *probes* (and one before the first, if it is empty).
    Each op is timed from the moment its client issues it; responses
    are kept for checking after the load phase.  Returns the records
    and the wall time of every block."""
    from repro.service.loadgen import http_json

    host = "127.0.0.1"
    records: list[dict] = [{} for _ in ops]

    async def client(number: int, indices) -> None:
        tenant = {"X-Tenant": f"client{number}"}
        for index in indices:
            op = ops[index]
            record = records[index]
            started = time.perf_counter()
            try:
                if op[0] == "scrape":
                    status, body, _ = await http_json(host, port, "GET", "/metrics")
                    record["submit_s"] = time.perf_counter() - started
                    record["status"] = status
                    record["body"] = body
                else:
                    path = "/v1/query" if op[0] == "query" else "/v1/update"
                    payload = (
                        {"node": "N0", "query": inputs.TEMPLATES[op[1]][0]}
                        if op[0] == "query"
                        else {"origin": "N0"}
                    )
                    status, body, _ = await http_json(
                        host, port, "POST", path, payload, headers=tenant
                    )
                    submitted = time.perf_counter()
                    record["submit_s"] = submitted - started
                    if status != 202:
                        raise RuntimeError(f"submit returned {status}: {body}")
                    status, body, _ = await http_json(
                        host, port, "GET",
                        f"/v1/result/{body['request_id']}?wait={GW_RESULT_WAIT_S}",
                        headers=tenant,
                    )
                    record["wait_s"] = time.perf_counter() - submitted
                    record["status"] = status
                    record["body"] = body
                record["latency_s"] = time.perf_counter() - started
            except Exception:  # a request that raises is a failed op
                record["error"] = traceback.format_exc()

    walls: list[float] = []
    if not probes:
        probes.append(await _probe(echo_port))
    for start in range(0, len(ops), block):
        indices = iter(range(start, min(start + block, len(ops))))
        started = time.perf_counter()
        await asyncio.gather(*(client(number, indices) for number in range(clients)))
        walls.append(time.perf_counter() - started)
        probes.append(await _probe(echo_port))
    return records, walls


_SAMPLE_LINE = re.compile(
    r'(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)(?:\{(?P<labels>[^}]*)\})? (?P<value>\S+)\Z'
)
_NODE_LABEL = re.compile(r'node="([^"]*)"')


def _metrics_nodes(text: str) -> set[str] | str:
    """The nodes the ``codb_node_*`` samples of a Prometheus text body
    name, or why the body does not parse."""
    nodes: set[str] = set()
    for number, line in enumerate(text.splitlines(), 1):
        if not line or line.startswith("#"):
            continue
        match = _SAMPLE_LINE.match(line)
        if match is None:
            return f"line {number} is no sample: {line!r}"
        try:
            float(match["value"])
        except ValueError:
            return f"line {number} has no numeric value: {line!r}"
        if match["name"].startswith("codb_node_"):
            nodes.update(_NODE_LABEL.findall(match["labels"] or ""))
    return nodes


def _check_gateway_op(op: tuple, record: dict, expected_rows: set) -> str:
    """Why the op's response is wrong, or ``""``."""
    if "error" in record:
        return record["error"]
    body = record.get("body", {})
    if record.get("status") != 200:
        return f"status {record.get('status')}: {body}"
    if op[0] == "scrape":
        nodes = _metrics_nodes(body.get("raw", ""))
        if isinstance(nodes, str):
            return f"/metrics does not parse: {nodes}"
        missing = {inputs.node_name(i) for i in range(GW_NODES)} - nodes
        return f"/metrics names no node family for {sorted(missing)}" if missing else ""
    if not body.get("ok"):
        return f"not ok: {body}"
    if op[0] == "update":
        outcome = body.get("result", {}).get("outcome")
        return "" if outcome == "complete" else f"update outcome {outcome!r}"
    rows = sorted(tuple(row) for row in body.get("result", {}).get("rows", []))
    if rows != inputs.reference_answer(op[1], expected_rows):
        return f"query answer of template {op[1]} is wrong"
    return ""


def gateway_mix(seed: int, seconds: int, tracer: Tracer | None) -> Run:
    from codbbench import server as server_module

    run = Run(per_interval=GW_BLOCK, reference_s=GW_PROBE_REFERENCE_S)
    data = inputs.ChainData(
        seed, server_module.SIZE, server_module.PER_NODE, server_module.OVERLAP
    )
    expected_rows = data.downstream_union(0)
    ops = inputs.gateway_ops(GW_LIFETIME_OPS)
    lifetimes = max(GW_MIN_LIFETIMES, round(seconds * GW_LIFETIMES_PER_S))
    run.client_ms = {"submit": [], "result_wait": []}
    echo = _Server("codbbench.echo")
    try:
        echo.wait_ready()
        for lifetime in range(lifetimes):
            _serve_lifetime(run, seed, tracer, lifetime, echo, ops, expected_rows)
    finally:
        echo.stop()
    return run


def _serve_lifetime(run, seed, tracer, lifetime, echo, ops, expected_rows) -> None:
    """Start a fresh gateway server, drive one lifetime of ops, stop it
    and check every response."""
    roles = {"query": "main", "update": "second", "scrape": "third"}
    spans = TRACE_DIR / f"gateway-mix-{seed}-server{lifetime}.jsonl"
    server = None
    try:
        started = time.perf_counter()
        args = ["--seed", str(seed), "--trace", "1" if tracer else "0"]
        if tracer is not None:
            args += ["--spans", str(spans)]
        server = _Server("codbbench.server", *args)
        server.wait_ready()
        run.setup_s.append(time.perf_counter() - started)
        pid = server.process.pid
        cpu_before = measure.peer_cpu_s(pid) + measure.own_cpu_s()
        records, walls = asyncio.run(
            _drive(server.port, echo.port, ops, GW_CLIENTS, GW_BLOCK, run.probes)
        )
        run.intervals.extend(walls)
        run.cpu_s += measure.peer_cpu_s(pid) + measure.own_cpu_s() - cpu_before
        run.peak_rss_mb = max(run.peak_rss_mb, measure.peer_peak_rss_mb(pid))
        report = server.stop()
    except BaseException:
        if server is not None:
            server.kill()
        raise
    _add_traffic(
        run,
        tuple(server.baseline[key] for key in ("messages", "bytes", "by_kind")),
        tuple(report[key] for key in ("messages", "bytes", "by_kind")),
    )
    for name, totals in report.get("layers", {}).items():
        merged = run.layers.setdefault(name, dict.fromkeys(totals, 0))
        for field_name, value in totals.items():
            merged[field_name] += value
    run.retained = report.get("retained", {})
    run.gc_pause_s += report.get("gc_pause_s", 0.0)
    for index, (op, record) in enumerate(zip(ops, records)):
        run.attempted += 1
        problem = _check_gateway_op(op, record, expected_rows)
        run.ops.append((roles[op[0]], record.get("latency_s", 0.0), not problem))
        if problem:
            run.fail(
                f"server {lifetime} op {index} ({op[0]}): {problem}",
                wrong="error" not in record,
            )
        elif op[0] != "scrape":
            run.client_ms["submit"].append(record["submit_s"] * 1000.0)
            run.client_ms["result_wait"].append(record["wait_s"] * 1000.0)


WORKLOADS = {
    "chain-update": chain_update,
    "read-write": read_write,
    "gateway-mix": gateway_mix,
}
