"""Run one benchmark workload and print its metrics.

    python3 codbbench/run.py --workload chain-update --seed 1 --seconds 15 --trace 0

Run from the repository root.  Prints every metric by name and unit,
then as its last line one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics untraced
(``--trace 0``), the per-layer metrics traced (``--trace 1``).
``--workload all`` runs every workload in turn.  The program is
imported from ``src/`` beside this directory and nowhere else.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from codbbench import measure, workloads  # noqa: E402
from codbbench.tracing import Tracer  # noqa: E402

#: Metric name -> unit.  Every workload reports every metric; the table
#: in README.md says what each role is on each workload.
END_TO_END = {
    "setup_s": "s",
    "main_p50_ms": "ms",
    "main_tail_ms": "ms",
    "second_p50_ms": "ms",
    "third_p50_ms": "ms",
    "ops_per_s": "1/s",
    "wire_msgs_per_op": "count",
    "wire_bytes_per_op": "bytes",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "relational.evaluate.ms_per_op": "ms",
    "relational.evaluate.calls_per_op": "count",
    "relational.insert_new.ms_per_op": "ms",
    "relational.insert_new.new_per_offered": "ratio",
    "relational.row_key.calls_per_row": "count",
    "relational.validate_row.calls_per_row": "count",
    "core.update.ingest.ms_per_op": "ms",
    "core.links.memory.calls_per_row": "count",
    "core.links.memory.ms_per_op": "ms",
    "core.query.ms_per_op": "ms",
    "core.answercache.hits_per_repeat_read": "ratio",
    "core.answercache.get.ms_per_call": "ms",
    "core.invalidation.msgs_per_write": "count",
    "core.query.participations_retained": "count",
    "core.statistics.lifetime_totals.ms_per_call": "ms",
    "core.statistics.reports_retained": "count",
    "p2p.messages.serialise.calls_per_msg": "count",
    "p2p.messages.serialise.ms_per_op": "ms",
    "p2p.transport.send.ms_per_op": "ms",
    "p2p.transport.deliver.ms_per_op": "ms",
    "service.submit.ms": "ms",
    "service.result_wait.ms": "ms",
    "service.metrics.render.ms_per_call": "ms",
    "gc.pause_ms_per_op": "ms",
    "cpu_ms_per_op": "ms",
}

#: Wrapped layers each workload must reach; a traced run in which one
#: of them records no call fails, since a renamed or rebound function
#: would otherwise read as a layer that costs nothing.
EXERCISED = {
    "chain-update": (
        "relational.evaluate", "relational.insert_new", "relational.row_key",
        "relational.validate_row", "core.update.ingest", "core.links.memory",
        "p2p.messages.serialise", "p2p.transport.send", "p2p.transport.deliver",
    ),
    "read-write": (
        "relational.evaluate", "relational.insert_new", "relational.row_key",
        "core.query", "core.answercache.get", "p2p.messages.serialise",
        "p2p.transport.send", "p2p.transport.deliver",
    ),
    "gateway-mix": (
        "relational.evaluate", "core.query", "core.answercache.get",
        "core.statistics.lifetime_totals", "service.metrics.render",
        "p2p.messages.serialise", "p2p.transport.send", "p2p.transport.deliver",
    ),
}

#: The op roles that are writes, and the role whose reads should be
#: cache hits, per workload (README.md has the role table).
WRITE_ROLES = {
    "chain-update": ("main", "second"),
    "read-write": ("third",),
    "gateway-mix": ("second",),
}
REPEAT_READ_ROLE = {"chain-update": None, "read-write": "second", "gateway-mix": "main"}


def end_to_end(run) -> dict[str, float]:
    """The end-to-end metrics.  Op times are scaled to the speed probe's
    reference speed (README.md says why); ``ops_per_s`` divides by the
    ops' scaled wall time."""
    samples = run.samples()
    main_tail = measure.tail(samples["main"])
    if main_tail is None:
        raise RuntimeError(f"only {len(samples['main'])} main ops: too few for a tail")
    busy = sum(measure.speed_scaled(run.intervals, run.probes, run.reference_s))
    return {
        "setup_s": measure.median(run.setup_s),
        "main_p50_ms": measure.median(samples["main"]) * 1000.0,
        "main_tail_ms": main_tail[1] * 1000.0,
        "second_p50_ms": measure.median(samples["second"]) * 1000.0,
        "third_p50_ms": measure.median(samples["third"]) * 1000.0,
        "ops_per_s": run.attempted / busy,
        "wire_msgs_per_op": run.messages / run.attempted,
        "wire_bytes_per_op": run.bytes / run.attempted,
        "peak_rss_mb": run.peak_rss_mb,
    }


def per_layer(workload: str, run) -> dict[str, float]:
    layers = run.layers
    ops = run.attempted

    def ms(name: str, field: str = "ms") -> float:
        return layers.get(name, {}).get(field, 0.0)

    def calls(name: str) -> float:
        return layers.get(name, {}).get("calls", 0)

    def ratio(top: float, bottom: float) -> float:
        return top / bottom if bottom else 0.0

    samples = run.samples(scaled=False)
    writes = sum(len(samples[role]) for role in WRITE_ROLES[workload])
    repeat_role = REPEAT_READ_ROLE[workload]
    repeat_reads = len(samples[repeat_role]) if repeat_role else 0
    client = {
        name: measure.median(values) if values else 0.0
        for name, values in run.client_ms.items()
    }
    return {
        "relational.evaluate.ms_per_op": ms("relational.evaluate") / ops,
        "relational.evaluate.calls_per_op": calls("relational.evaluate") / ops,
        "relational.insert_new.ms_per_op": ms("relational.insert_new") / ops,
        "relational.insert_new.new_per_offered": ratio(
            calls("relational.insert_new.new"), calls("relational.insert_new.offered")
        ),
        "relational.row_key.calls_per_row": ratio(
            calls("relational.row_key"), run.rows_imported
        ),
        "relational.validate_row.calls_per_row": ratio(
            calls("relational.validate_row"), run.rows_imported
        ),
        "core.update.ingest.ms_per_op": ms("core.update.ingest") / ops,
        "core.links.memory.calls_per_row": ratio(
            calls("core.links.memory"), run.rows_imported
        ),
        "core.links.memory.ms_per_op": ms("core.links.memory") / ops,
        "core.query.ms_per_op": ms("core.query") / ops,
        "core.answercache.hits_per_repeat_read": ratio(
            calls("core.answercache.hit"), repeat_reads
        ),
        "core.answercache.get.ms_per_call": ratio(
            ms("core.answercache.get"), calls("core.answercache.get")
        ),
        "core.invalidation.msgs_per_write": ratio(
            run.messages_by_kind.get("invalidation", 0), writes
        ),
        "core.query.participations_retained": run.retained.get("participations", 0),
        "core.statistics.lifetime_totals.ms_per_call": ratio(
            ms("core.statistics.lifetime_totals"),
            calls("core.statistics.lifetime_totals"),
        ),
        "core.statistics.reports_retained": run.retained.get("reports", 0),
        "p2p.messages.serialise.calls_per_msg": ratio(
            calls("p2p.messages.serialise"), run.messages
        ),
        "p2p.messages.serialise.ms_per_op": ms("p2p.messages.serialise") / ops,
        "p2p.transport.send.ms_per_op": ms("p2p.transport.send") / ops,
        # The delivery hand-off runs the node's whole handler: its self
        # time is the transport's own share.
        "p2p.transport.deliver.ms_per_op": ms("p2p.transport.deliver", "self_ms") / ops,
        "service.submit.ms": client.get("submit", 0.0),
        "service.result_wait.ms": client.get("result_wait", 0.0),
        "service.metrics.render.ms_per_call": ratio(
            ms("service.metrics.render"), calls("service.metrics.render")
        ),
        "gc.pause_ms_per_op": run.gc_pause_s * 1000.0 / ops,
        "cpu_ms_per_op": run.cpu_s * 1000.0 / ops,
    }


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    run = workloads.WORKLOADS[workload](seed, seconds, Tracer() if trace else None)
    if trace:
        silent = [name for name in EXERCISED[workload] if not run.layers.get(name)]
        if silent:
            raise RuntimeError(f"traced layers recorded no call: {silent}")
        metrics, units = per_layer(workload, run), PER_LAYER
    else:
        metrics, units = end_to_end(run), END_TO_END
    raw = run.samples(scaled=False)
    counts = {role: len(values) for role, values in raw.items()}
    print(f"# {workload} seed={seed} ops={counts} timed_s={sum(run.intervals):.3f}")
    print("# unscaled p50 ms: " + " ".join(
        f"{role}={measure.median(values) * 1000.0:.3f}" for role, values in raw.items()
    ) + f"; probe median {measure.median(run.probes) * 1000.0:.3f} ms")
    for name, value in metrics.items():
        print(f"{name:48s} {value:14.4f} {units[name]}")
    return {
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=[*workloads.WORKLOADS, "all"]
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import repro

    if Path(repro.__file__).resolve().parent != ROOT / "src" / "repro":
        print(f"repro was imported from {repro.__file__}, not {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
