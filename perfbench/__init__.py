"""Repository benchmark: end-to-end timings, output checks and per-layer traces.

Run one workload with ``python3 perfbench/run.py --workload <name> --seed <n>
--seconds <s> --trace <0|1>`` from the repository root; see ``README.md`` in
this directory.
"""
