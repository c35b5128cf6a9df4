"""Tests of the benchmark itself, at tiny sizes.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import harness, live, run, sims  # noqa: E402
from perfbench.layers import (  # noqa: E402
    COUNTED, COUNTED_BATCH, ITERATED, TIMED, WAITED, Tracer, _resolve,
)

SEED = 3


def _assert_reported(record, names):
    for name in names:
        value, _unit = record.metrics[name]
        assert value == value, name  # not NaN


def test_benchmark_json_matches_the_metrics_the_code_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.PER_LAYER
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_sim_replay_end_to_end_and_traced_identity():
    record, traced = sims.run_sim_replay(SEED, seconds=0.5, trace=True, scale=0.05)
    assert record.correct, record.checks
    assert record.checks["traced replay statistics identical to untraced"]
    _assert_reported(record, ["setup_s", "req_per_s", "latency_p50_ms", "hit_ratio"])
    values = sims.per_layer(traced)
    assert values["traces.records"] == record.notes["simulated"]["requests"]
    assert values["summaries.contains.calls"] > 0 and values["core.bit_reads"] > 0
    assert values["simulation.engine.events"] == 0  # bypassed layer


def test_window_clock_slices_cover_every_pulled_request():
    clock = sims.WindowClock(list(range(10 * 7 + 3)), window=7)
    clock.mark()
    assert sum(1 for _ in clock) == 73
    clock.mark()
    slices = clock.slices()
    # The first record is pulled before the first window opens.
    assert sum(n for n, _scale, _group in slices) == 72
    assert [len(group) for _n, _scale, group in slices] == [5, 6]
    assert all(scale > 0 for _n, scale, _group in slices)
    assert all(wall >= 0 and cpu >= 0 for *_head, group in slices for _r, wall, cpu in group)
    assert 0 < clock.wall < clock.marks[-1][1] - clock.marks[0][1]


def test_des_cluster_end_to_end_and_traced_identity():
    record, traced = sims.run_des_cluster(SEED, seconds=0.5, trace=True, scale=0.05)
    assert record.correct, record.checks
    values = sims.per_layer(traced)
    assert values["simulation.engine.events"] > 0
    assert values["traces.records"] == 0  # bypassed layer


def test_tracer_restores_every_original():
    targets = []
    for table in (TIMED, WAITED, COUNTED, COUNTED_BATCH, ITERATED):
        for _layer, spec, names in table:
            for owner in _resolve(spec):
                targets += [(owner, n, vars(owner)[n]) for n in names if n in vars(owner)]
    tracer = Tracer()
    with tracer:
        assert any(vars(owner)[name] is not original for owner, name, original in targets)
    assert all(vars(owner)[name] is original for owner, name, original in targets)
    import repro.proxy.server as server
    from repro.protocol import wire

    assert server.decode_message is wire.decode_message


def test_tracer_self_time_excludes_wrapped_callees():
    tracer = Tracer()
    inner = tracer._timed("inner", lambda: sum(range(20000)))
    outer = tracer._timed("outer", lambda: inner())
    outer()
    assert tracer.calls == {"inner": 1, "outer": 1}
    assert 0 <= tracer.busy["outer"] < tracer.busy["inner"] * 0.9 + 1e-4


def test_live_end_to_end():
    cpus = os.sched_getaffinity(0)
    record, _ = live.run_live(SEED, seconds=2, trace=False)
    assert os.sched_getaffinity(0) == cpus
    assert record.correct, record.checks
    assert record.attempted > 0 and record.failed == 0
    _assert_reported(record, [name for name, _ in run.END_TO_END if name != "success_ratio"])


def test_live_traced_reports_every_layer():
    record, values = live.run_live(SEED, seconds=2, trace=True)
    assert record.correct, record.checks
    assert values["protocol.decode.calls"] > 0
    assert values["proxy.http.parse.busy_s"] > 0
    assert 0 < values["proxy.pool.reuse_ratio"] <= 1


def _corrupt_every(monkeypatch, nth):
    """Ask the origin for one byte more than the check expects on every
    *nth* request, so that response's body length is wrong."""
    honest = live._request_bytes
    sent = [0]

    def lying(url, size):
        sent[0] += 1
        return honest(url, size + 1 if sent[0] % nth == 0 else size)

    monkeypatch.setattr(live, "_request_bytes", lying)


def test_forced_wrong_body_length_counts_as_failure(monkeypatch):
    _corrupt_every(monkeypatch, 50)
    record, _ = live.run_live(SEED, seconds=1, trace=False)
    assert record.failed >= 1
    assert not record.correct
    assert not record.checks["every response is a 200 whose body length equals X-Size"]


def test_run_reports_failure_in_error_ratio_and_exit_status(monkeypatch, capsys):
    _corrupt_every(monkeypatch, 10)
    status = run.run_one("live-mixed", SEED, 1, trace=False)
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert status == 1
    assert result["correct"] is False
    assert 0 < result["failed"] < result["attempted"]
    success = result["metrics"]["success_ratio"]["value"]
    assert success == pytest.approx(1 - result["failed"] / result["attempted"])


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sim-replay", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_percentile_and_digest_are_stable():
    assert harness.percentile([1.0, 2.0, 3.0, 4.0], 0.5) == 2.5



def test_speed_scale_maps_probe_times_to_the_nominal_host():
    nominal = harness.NOMINAL_PROBE_S
    assert harness.speed_scale([nominal, nominal * 3, nominal / 2]) == 1.0
    # A host running the probe at half speed doubled every interval.
    assert harness.speed_scale([nominal * 2]) == 0.5
    assert harness.probe() > 0
    assert harness.digest({"a": 1, "b": [1, 2]}) == harness.digest({"b": [1, 2], "a": 1})
