"""The benchmark's own tests, at small sizes.

    python3 -m pytest codbbench/check_bench.py -q

(The file name keeps it out of the repository's default test run: these
tests start processes and take tens of seconds.)
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

import pytest  # noqa: E402

from codbbench import inputs, measure, workloads  # noqa: E402
from codbbench.tracing import Tracer  # noqa: E402


@pytest.fixture
def small(monkeypatch):
    """Every workload at a size that runs in seconds."""
    monkeypatch.setattr(workloads, "CHAIN_SIZE", 4)
    monkeypatch.setattr(workloads, "CHAIN_ROWS", 20)
    monkeypatch.setattr(workloads, "CHAIN_MIN_ROUNDS", 2)
    monkeypatch.setattr(workloads, "RW_ROWS", 20)
    monkeypatch.setattr(workloads, "RW_MIN_OPS", 40)
    monkeypatch.setattr(workloads, "RW_SETUPS", 1)
    monkeypatch.setattr(workloads, "GW_LIFETIME_OPS", 20)
    monkeypatch.setattr(workloads, "GW_MIN_LIFETIMES", 2)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_passes_its_checks(small, name):
    run = workloads.WORKLOADS[name](3, 0, None)
    assert run.correct
    assert run.failed == 0
    assert run.attempted > 0
    assert all(run.samples().values())


def test_wrong_read_answer_is_a_failed_op(small, monkeypatch):
    right = inputs.reference_answer
    monkeypatch.setattr(
        inputs, "reference_answer", lambda template, rows: right(template, rows)[1:]
    )
    run = workloads.read_write(3, 0, None)
    assert not run.correct
    reads = sum(1 for role, _, _ in run.ops if role != "third")
    assert run.failed == reads


def test_wrong_update_expectation_is_a_failed_op(small, monkeypatch):
    right = inputs.ChainData.downstream_union
    monkeypatch.setattr(
        inputs.ChainData,
        "downstream_union",
        lambda self, index: right(self, index) | {(-1, -1)},
    )
    run = workloads.chain_update(3, 0, None)
    assert not run.correct
    # Every bulk update and every local read of each round is wrong.
    assert run.failed == 2 * workloads.CHAIN_MIN_ROUNDS


def test_wrong_gateway_answer_is_a_failed_op(small, monkeypatch):
    monkeypatch.setattr(inputs, "reference_answer", lambda template, rows: [])
    run = workloads.gateway_mix(3, 0, None)
    assert not run.correct
    queries = [op for op in inputs.gateway_ops(20) if op[0] == "query"]
    assert run.failed == 2 * len(queries)


def test_tail_needs_ten_samples_beyond_it():
    assert measure.tail([1.0] * (measure.MIN_TAIL_SAMPLES - 1)) is None
    values = [float(i) for i in range(1, 41)]
    q, value = measure.tail(values)
    assert q == 0.75
    assert len([v for v in values if v > value]) == 10
    q, value = measure.tail([float(i) for i in range(1, 1001)])
    assert q == 0.99
    assert value == 990.0


def test_function_wrapper_rebinds_every_importer():
    import repro.relational.values as values
    from repro.core import links, push, query, update
    from repro.relational import evaluation, planner, storage

    importers = (links, push, query, update, evaluation, planner, storage)
    tracer = Tracer()
    original = values.row_key
    try:
        rebound = tracer.wrap_function(
            "repro.relational.values", "row_key", "row_key", count_only=True
        )
        assert rebound >= 1 + len(importers)
        assert all(module.row_key is values.row_key for module in importers)
        assert values.row_key is not original
        tracer.active = True
        storage.row_key((1, 2))
        update.row_key((1, 2))
        tracer.active = False
        assert tracer.totals()["row_key"]["calls"] == 2
    finally:
        tracer.uninstall()
    assert values.row_key is original and storage.row_key is original


def test_gateway_op_shares_repeat_in_every_block():
    kinds = [op[0] for op in inputs.gateway_ops(100)]
    assert (kinds.count("query"), kinds.count("update"), kinds.count("scrape")) == (60, 30, 10)


def test_read_write_schedule_is_the_same_for_every_seed():
    one, two = inputs.read_write_ops(1, 100, 4), inputs.read_write_ops(2, 100, 4)
    assert [op[:2] for op in one] == [op[:2] for op in two]
    assert [op[2] for op in one if op[0] == "write"] != [
        op[2] for op in two if op[0] == "write"
    ]
