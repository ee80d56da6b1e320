"""The gateway-mix server: a ``ServiceGateway`` over a TCP-transport
chain, in a process of its own so that it does not share an interpreter
lock with the load generator.

Run as ``python3 -m codbbench.server --seed N --trace 0|1`` with the
repository root and its ``src`` on ``PYTHONPATH``.  Prints ``READY
<port> <counters>`` once the network is built, fully updated and
listening, with the transport counters set-up left behind as JSON.  On
SIGTERM the gateway drains, and the server prints one JSON line with
its transport counters, retained state and (traced) layer totals.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import signal
import sys

from codbbench import inputs

SIZE = 4
PER_NODE = 100
OVERLAP = 0.25
#: Per-tenant live-request cap; each closed-loop client is one tenant
#: with at most one request live, so admission never refuses.
PER_TENANT = 4


def build_network(seed: int):
    from repro import CoDBNetwork
    from repro.p2p.tcp import TcpNetwork

    data = inputs.ChainData(seed, SIZE, PER_NODE, OVERLAP)
    network = CoDBNetwork(seed=seed, transport=TcpNetwork())
    for index, rows in enumerate(data.rows):
        network.add_node(inputs.node_name(index), inputs.ITEM_SCHEMA)
        network.node(inputs.node_name(index)).load_facts({"item": rows})
    network.add_rules(inputs.chain_rules(SIZE))
    network.start()
    network.global_update(inputs.node_name(0))
    return network


def counters(network) -> dict:
    stats = network.transport.stats
    return {
        "messages": stats.messages_sent,
        "bytes": stats.bytes_sent,
        "by_kind": dict(stats.by_kind),
    }


async def serve(network, tracer) -> None:
    from repro.service import ServiceGateway, TenantQuotas

    gateway = ServiceGateway(network, quotas=TenantQuotas(PER_TENANT))
    await gateway.start()
    # Installed before READY, so a SIGTERM that follows it always drains.
    asyncio.get_running_loop().add_signal_handler(
        signal.SIGTERM, gateway.request_shutdown
    )
    if tracer is not None:
        tracer.active = True
    print(f"READY {gateway.port} {json.dumps(counters(network))}", flush=True)
    await gateway.serve_forever(handle_signals=False)
    if tracer is not None:
        tracer.active = False


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default="", help="write spans here (traced)")
    args = parser.parse_args(argv)

    tracer = None
    if args.trace:
        from codbbench.tracing import Tracer, install_layers

        tracer = Tracer()
        install_layers(tracer)
    network = build_network(args.seed)
    try:
        asyncio.run(serve(network, tracer))
        report = counters(network)
        if tracer is not None:
            from codbbench.tracing import layer_counts

            report["layers"] = tracer.totals()
            report["retained"] = layer_counts(network)
            report["gc_pause_s"] = tracer.gc_pause_s
            if args.spans:
                from pathlib import Path

                tracer.write_spans(Path(args.spans))
        print(json.dumps(report), flush=True)
    finally:
        network.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main())
