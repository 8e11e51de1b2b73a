"""The repository benchmark: four workloads, end-to-end metrics from an
untraced run and per-layer metrics from a traced one (see README.md)."""
