"""Repository benchmark: workloads, per-layer ledger, runner (see README.md)."""
