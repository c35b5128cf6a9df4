"""The repository benchmark: end-to-end and per-layer costs of all three
engines (trace simulator, discrete-event cluster, live proxy).

Run ``python3 perfbench/run.py --workload <name>``; see ``README.md``.
"""
