"""Repository benchmark: end-to-end host cost and fidelity, plus a traced
per-layer ledger.  Run ``python3 flickbench/run.py --help``."""
