"""A steady end-to-end benchmark of the coDB reproduction.

Run ``python3 codbbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` from the repository root; see ``codbbench/README.md``.
"""
