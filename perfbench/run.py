"""Run one workload of the repository benchmark (or all of them).

    python3 perfbench/run.py --workload sim-replay --seed 1 --seconds 30 --trace 0

Prints a self-describing block (provenance, configuration, results,
checks) and, as the last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Exit status: 0 when every correctness check passed, 1 when one failed
(or tracing changed a simulated result), 2 when the program under test
cannot be found.  ``--workload all`` runs every workload in turn, each
in its own process.
"""

from __future__ import annotations

import argparse
import json
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import harness  # noqa: E402
from perfbench.layers import LAYER_METRICS  # noqa: E402

WORKLOADS = ("sim-replay", "des-cluster", "live-mixed")

#: Every end-to-end metric, reported on every workload.
END_TO_END = [
    ("setup_s", "s"),
    ("req_per_s", "req/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("hit_ratio", "ratio"),
    ("udp_per_req", "msgs/req"),
    ("server_cpu_us_per_req", "us/req"),
    ("peak_rss_mib", "MiB"),
    ("success_ratio", "ratio"),
]
#: Every per-layer metric; a layer a workload bypasses reports 0.
PER_LAYER = LAYER_METRICS + [
    ("core.position_cache.hit_ratio", "ratio"),
    ("sharing.self_s", "s"),
    ("sharing.query_precision", "ratio"),
    ("simulation.msgs_per_req", "msgs/req"),
    ("proxy.loop_other_s", "s"),
    ("proxy.phase.icp_round_s", "s"),
    ("proxy.phase.peer_fetch_s", "s"),
    ("proxy.phase.origin_fetch_s", "s"),
    ("proxy.icp.false_round_ratio", "ratio"),
    ("proxy.pool.reuse_ratio", "ratio"),
    ("loadgen.cpu_busy_ratio", "ratio"),
    ("trace.overhead_ratio", "ratio"),
    ("host.calib_loops_per_s", "1/s"),
]


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_one(workload: str, seed: int, seconds: int, trace: bool) -> int:
    from perfbench import live, sims

    runner = {
        "sim-replay": sims.run_sim_replay,
        "des-cluster": sims.run_des_cluster,
        "live-mixed": live.run_live,
    }[workload]
    calibration = [harness.calibration_rate()]
    try:
        record, traced = runner(seed, seconds, trace)
    except harness.BenchError as exc:
        harness.log(f"error: {workload}: {exc}")
        return 1
    finally:
        harness.cleanup_work_dir()
    calibration.append(harness.calibration_rate())
    record.notes["calibration_loops_per_s"] = [round(rate) for rate in calibration]
    record.metric("success_ratio", 1.0 - record.failed / max(1, record.attempted), "ratio")
    if trace:
        values = sims.per_layer(traced) if workload in ("sim-replay", "des-cluster") else traced
        values["host.calib_loops_per_s"] = min(calibration)
        for name, unit in PER_LAYER:
            record.metric(name, values.get(name, 0.0), unit)
    names = [name for name, _unit in (PER_LAYER if trace else END_TO_END)]
    print(harness.render(record, harness.provenance(seed, seconds, trace)))
    print(harness.result_line(record, names), flush=True)
    return 0 if record.correct else 1


def run_all(args) -> int:
    """Each workload in its own process; a combined line at the end."""
    status, attempted, failed, metrics = 0, 0, 0, {}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True,
        )
        print(proc.stdout, end="")
        status = max(status, proc.returncode)
        if proc.returncode not in (0, 1):
            continue
        result = json.loads(proc.stdout.splitlines()[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        for name, value in result["metrics"].items():
            metrics[f"{workload}/{name}"] = value
    print(json.dumps({"correct": status == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return status


def main(argv=None) -> int:
    args = _parse(argv)
    # Turn a termination request into SystemExit so every `finally`
    # runs and the server processes a live workload started are stopped.
    signal.signal(signal.SIGTERM, lambda _signum, _frame: sys.exit(143))
    if not (ROOT / "src" / "repro").is_dir():
        harness.log(f"error: the program under test ({ROOT / 'src' / 'repro'}) is missing")
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
