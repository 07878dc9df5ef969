"""End-to-end why-not benchmark: whole-question latency and throughput
on four workloads, with a layer-attributed traced replay.

See ``benchmarks/e2e/README.md``.
"""
