"""The repository benchmark: three DELRec workloads, end-to-end and per-layer metrics."""
