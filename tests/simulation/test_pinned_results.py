"""Exact regression pins for the discrete-event simulator.

The tolerance-based checks elsewhere (``pytest.approx`` on hit ratios
and overheads) would pass a kernel change that reordered same-time
events or shifted a timestamp by one rounding step.  These tests do
not: each runs a small, fully deterministic experiment and compares
every simulated statistic *exactly* -- floats included, no ``approx``
-- with values recorded from the reference kernel, together with the
number of events the run scheduled (every event goes through
:meth:`Engine.call_later`, so counting its calls counts them all).

If a deliberate model change moves these numbers, re-record them and
say why in the change description; a kernel optimisation must never
move them.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.proxy.config import ProxyMode
from repro.simulation.engine import Engine
from repro.simulation.experiment import (
    run_overhead_experiment,
    run_replay_experiment,
)
from repro.simulation.nodes import SimProxyConfig
from repro.simulation.scale import run_scale_experiment
from repro.traces import make_workload
from repro.traces.synthetic import SyntheticTraceConfig, generate_trace

#: Host-dependent fields of a :class:`ScaleResult`, left out of the pin.
HOST_FIELDS = ("wall_seconds", "peak_rss_bytes")


@pytest.fixture
def event_count(monkeypatch):
    """Count every :meth:`Engine.call_later` call made during the test."""
    calls = [0]
    original = Engine.call_later

    def counting(self, delay, callback, *args):
        calls[0] += 1
        return original(self, delay, callback, *args)

    monkeypatch.setattr(Engine, "call_later", counting)
    return calls


def scale_cell(dissemination: str) -> dict:
    trace, _groups = make_workload("dec", scale=0.1, seed=1)
    result = run_scale_experiment(
        trace,
        num_proxies=8,
        dissemination=dissemination,
        cache_capacity=512 * 1024,
    ).to_dict()
    for field in HOST_FIELDS:
        result.pop(field)
    return result


def overhead_cell(mode: ProxyMode) -> dict:
    result = run_overhead_experiment(
        mode,
        clients_per_proxy=5,
        requests_per_client=40,
        proxy_config=SimProxyConfig(
            cache_capacity=1024 * 1024, update_policy="packet-fill"
        ),
        seed=3,
    )
    return dataclasses.asdict(result)


def replay_cell() -> dict:
    trace = generate_trace(
        SyntheticTraceConfig(
            name="pinned-replay",
            num_requests=1500,
            num_clients=16,
            num_documents=500,
            mean_size=2048,
            max_size=64 * 1024,
            mod_probability=0.01,
            seed=11,
        )
    )
    result = run_replay_experiment(
        trace,
        ProxyMode.SC_ICP,
        num_proxies=4,
        clients_per_proxy=5,
        proxy_config=SimProxyConfig(
            cache_capacity=256 * 1024, update_policy="threshold"
        ),
    )
    return dataclasses.asdict(result)


#: ``(events scheduled, statistics)`` per cell, recorded from the
#: reference kernel.
EXPECTED_SCALE = {'unicast': (74686,
             {'num_proxies': 8,
              'dissemination': 'unicast',
              'fanout': 4,
              'requests': 6000,
              'hit_ratio': 0.7,
              'remote_hit_ratio': 0.2425,
              'miss_ratio': 0.30000000000000004,
              'false_hit_ratio': 0.18616666666666667,
              'update_messages': 10556,
              'update_messages_per_request': 1.7593333333333334,
              'query_messages_per_request': 1.7283333333333333,
              'protocol_messages_per_request': 3.4876666666666667,
              'udp_sent': 31296,
              'udp_received': 31296,
              'sender_max_dirupdates': 1379,
              'summary_memory_bytes': 448,
              'counter_memory_bytes': 256,
              'mean_latency': 0.31531791516585356,
              'sim_duration': 267.53116366194,
              'predicted': {'summary_memory_bytes': 448,
                            'counter_memory_bytes': 256,
                            'requests_between_updates': 2.133333333333333,
                            'update_messages_per_request': 3.281250000000001,
                            'false_hit_queries_per_request': 0.05033416672412859,
                            'protocol_messages_per_request': 3.3315841667241295}}),
 'hierarchy': (83698,
               {'num_proxies': 8,
                'dissemination': 'hierarchy',
                'fanout': 4,
                'requests': 6000,
                'hit_ratio': 0.7,
                'remote_hit_ratio': 0.2425,
                'miss_ratio': 0.30000000000000004,
                'false_hit_ratio': 0.18616666666666667,
                'update_messages': 10556,
                'update_messages_per_request': 1.7593333333333334,
                'query_messages_per_request': 1.7288333333333334,
                'protocol_messages_per_request': 3.488166666666667,
                'udp_sent': 31302,
                'udp_received': 31302,
                'sender_max_dirupdates': 1371,
                'summary_memory_bytes': 448,
                'counter_memory_bytes': 256,
                'mean_latency': 0.3148375361314331,
                'sim_duration': 267.08629183677897,
                'predicted': {'summary_memory_bytes': 448,
                              'counter_memory_bytes': 256,
                              'requests_between_updates': 2.133333333333333,
                              'update_messages_per_request': 3.281250000000001,
                              'false_hit_queries_per_request': 0.05033416672412859,
                              'protocol_messages_per_request': 3.3315841667241295}})}

EXPECTED_OVERHEAD = {'icp': (11750,
         {'mode': 'icp',
          'hit_ratio': 0.23875,
          'remote_hit_ratio': 0.0,
          'mean_latency': 0.7820386997658165,
          'user_cpu': 4.076960000000047,
          'system_cpu': 5.882540999999944,
          'udp_sent': 3942,
          'udp_received': 3942,
          'tcp_sent': 8538,
          'tcp_received': 8309,
          'duration': 36.43734280916924,
          'requests': 800,
          'false_query_rounds': 0,
          'dirupdates_sent': 0}),
 'sc-icp': (3055,
            {'mode': 'sc-icp',
             'hit_ratio': 0.23875,
             'remote_hit_ratio': 0.0,
             'mean_latency': 0.7766805952077469,
             'user_cpu': 3.24629,
             'system_cpu': 5.1673409999999995,
             'udp_sent': 318,
             'udp_received': 318,
             'tcp_sent': 8538,
             'tcp_received': 8309,
             'duration': 36.25018143617919,
             'requests': 800,
             'false_query_rounds': 3,
             'dirupdates_sent': 24})}

EXPECTED_REPLAY = (9347,
 {'mode': 'sc-icp',
  'hit_ratio': 0.7253333333333334,
  'remote_hit_ratio': 0.13,
  'mean_latency': 0.29173426116972323,
  'user_cpu': 7.41502999999999,
  'system_cpu': 10.671759500000006,
  'udp_sent': 2541,
  'udp_received': 2541,
  'tcp_sent': 9820,
  'tcp_received': 9700,
  'duration': 24.944350535755014,
  'requests': 1500,
  'false_query_rounds': 134,
  'dirupdates_sent': 1197})


@pytest.mark.parametrize("dissemination", ["unicast", "hierarchy"])
def test_scale_experiment_pinned(dissemination, event_count):
    expected_events, expected = EXPECTED_SCALE[dissemination]
    assert scale_cell(dissemination) == expected
    assert event_count[0] == expected_events


@pytest.mark.parametrize("mode", [ProxyMode.ICP, ProxyMode.SC_ICP])
def test_overhead_experiment_pinned(mode, event_count):
    expected_events, expected = EXPECTED_OVERHEAD[mode.value]
    assert overhead_cell(mode) == expected
    assert event_count[0] == expected_events


def test_replay_experiment_pinned(event_count):
    expected_events, expected = EXPECTED_REPLAY
    assert replay_cell() == expected
    assert event_count[0] == expected_events
