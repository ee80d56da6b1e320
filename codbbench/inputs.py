"""Seeded inputs and the plain-Python reference answers they are checked
against.

Every input is a pure function of the workload seed, made here rather
than by the program's own data generator, so the checks below never
share code with what they check.  Rows are ``(k, v)`` pairs of the one
relation ``item(k: int, v: int)`` every node holds; keys are distinct
across nodes except for a shared pool that every node holds
identically, which gives the update's duplicate elimination rows to
reject.
"""

from __future__ import annotations

import random

ITEM_SCHEMA = "item(k: int, v: int)"
VALUE_RANGE = 1_000
KEY_DOMAIN = 10_000_000

#: The read templates: query text and the same filter as a Python
#: predicate over one ``(k, v)`` row.  The thresholds split the uniform
#: value range and the key domain into answers of different sizes.
TEMPLATES: tuple[tuple[str, object], ...] = (
    ("q(k, v) <- item(k, v)", lambda k, v: True),
    ("q(k, v) <- item(k, v), v < 250", lambda k, v: v < 250),
    ("q(k, v) <- item(k, v), v >= 500", lambda k, v: v >= 500),
    ("q(k, v) <- item(k, v), v >= 100, v < 400", lambda k, v: 100 <= v < 400),
    ("q(k, v) <- item(k, v), k < 5000000", lambda k, v: k < 5_000_000),
    ("q(k, v) <- item(k, v), k >= 2500000, v < 750",
     lambda k, v: k >= 2_500_000 and v < 750),
)


def node_name(index: int) -> str:
    return f"N{index}"


def chain_rules(size: int) -> list[str]:
    """``N0 <- N1 <- ... <- N{size-1}``: every node's data flows to N0."""
    return [
        f"{node_name(i)}:item(k, v) <- {node_name(i + 1)}:item(k, v)"
        for i in range(size - 1)
    ]


class ChainData:
    """Seeded rows for a chain of *size* nodes, *per_node* rows each, a
    share *overlap* of which comes from a pool every node holds."""

    def __init__(self, seed: int, size: int, per_node: int, overlap: float) -> None:
        rng = random.Random(f"codbbench/{seed}/rows")
        shared = int(round(per_node * overlap))
        private = per_node - shared
        keys = rng.sample(range(KEY_DOMAIN), shared + size * private)
        pool = [(key, rng.randrange(VALUE_RANGE)) for key in keys[:shared]]
        self.rows: list[list[tuple[int, int]]] = []
        for index in range(size):
            start = shared + index * private
            own = [
                (key, rng.randrange(VALUE_RANGE))
                for key in keys[start:start + private]
            ]
            self.rows.append(pool + own)
        self.size = size

    def downstream_union(self, index: int) -> set[tuple[int, int]]:
        """What node *index* holds after a global update: its own rows
        and those of every node further up the chain."""
        union: set[tuple[int, int]] = set()
        for rows in self.rows[index:]:
            union.update(rows)
        return union


def reference_answer(template: int, rows: set[tuple[int, int]]) -> list[tuple[int, int]]:
    """The template evaluated in plain Python over *rows*."""
    keep = TEMPLATES[template][1]
    return sorted(row for row in rows if keep(*row))


def read_write_ops(seed: int, count: int, writers: int) -> list[tuple]:
    """The read-write op sequence: every tenth op a one-row write
    ``("write", writer index, row)`` at an upstream node, the rest
    ``("read", template)``.

    Which template each read uses and which node each write goes to is
    one fixed schedule, the same for every seed: it decides how many
    reads are fresh, how far each invalidation travels and so how many
    messages a run sends, which must not differ between seeds.  The seed
    picks the written values.  Written keys are negative, so they never
    collide with loaded rows."""
    schedule = random.Random("codbbench/read-write/schedule")
    values = random.Random(f"codbbench/{seed}/read-write/values")
    ops: list[tuple] = []
    for index in range(count):
        if index % 10 == 9:
            row = (-(index + 1), values.randrange(VALUE_RANGE))
            ops.append(("write", 1 + schedule.randrange(writers), row))
        else:
            ops.append(("read", schedule.randrange(len(TEMPLATES))))
    return ops


def gateway_ops(count: int) -> list[tuple]:
    """The gateway mix, one fixed schedule for every seed (the seed
    picks the data): of every ten ops six queries, three global updates
    and one scrape, shuffled per block of ten so a run of any length
    holds the same shares."""
    schedule = random.Random("codbbench/gateway-mix/schedule")
    ops: list[tuple] = []
    for _ in range(count // 10):
        block = [("query", schedule.randrange(len(TEMPLATES))) for _ in range(6)]
        block += [("update",)] * 3 + [("scrape",)]
        schedule.shuffle(block)
        ops.extend(block)
    return ops
