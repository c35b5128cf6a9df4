"""Bulk position-tuple operations against the per-bit reference path.

Every bulk operation of :mod:`repro.core.bitarray` must leave exactly
the state a loop of the per-bit calls leaves, raise
:class:`~repro.errors.BitIndexError` for an out-of-range index, and
change nothing when it raises.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bitarray import BitArray, CounterArray
from repro.errors import BitIndexError, SummaryStateError
from repro.sharing.summary_sharing import (
    SummarySharingConfig,
    ThresholdUpdatePolicy,
    simulate_summary_sharing,
)
from repro.simulation.scale import run_scale_experiment
from repro.traces.synthetic import SyntheticTraceConfig, generate_trace

SIZE = 24

#: Indices mostly in range, sometimes just outside it on either side.
indices = st.integers(min_value=-2, max_value=SIZE + 1)
in_range = st.integers(min_value=0, max_value=SIZE - 1)
widths = st.sampled_from(CounterArray.SUPPORTED_WIDTHS)


def _bits(initial):
    bits = BitArray(SIZE)
    bits.set_many(initial)
    return bits


def _counters(width, initial):
    counters = CounterArray(SIZE, width=width)
    top = counters.max_value
    counters.load_from(min(value, top) for value in initial)
    return counters


def _out_of_range(positions):
    return any(not 0 <= index < SIZE for index in positions)


counter_values = st.lists(
    st.integers(min_value=0, max_value=255), min_size=SIZE, max_size=SIZE
)
#: Short tuples over a few positions, so repeats are common.
position_tuples = st.lists(
    st.one_of(st.integers(min_value=0, max_value=3), indices),
    min_size=0,
    max_size=8,
).map(tuple)


class TestContainsAll:
    @given(st.sets(in_range), position_tuples)
    @settings(max_examples=300)
    def test_matches_all_get(self, initial, positions):
        bits = _bits(initial)
        try:
            expected = all(bits.get(index) for index in positions)
        except BitIndexError:
            with pytest.raises(BitIndexError):
                bits.contains_all(positions)
        else:
            assert bits.contains_all(positions) is expected

    def test_out_of_range_raises(self):
        bits = _bits(range(SIZE))
        with pytest.raises(BitIndexError, match="bit index 24 out of range"):
            bits.contains_all((0, SIZE))


class TestSetMany:
    @given(st.sets(in_range), position_tuples, st.booleans())
    @settings(max_examples=300)
    def test_matches_per_bit_set(self, initial, positions, value):
        bits = _bits(initial)
        before = bits.copy()
        if _out_of_range(positions):
            with pytest.raises(BitIndexError):
                bits.set_many(positions, value)
            assert bits == before
            assert bits.popcount == before.popcount
            return
        reference = before.copy()
        changed = [i for i in positions if reference.set(i, value)]
        assert bits.set_many(positions, value) == changed
        assert bits == reference
        assert bits.popcount == reference.popcount


class TestApplyRecords:
    @given(
        st.sets(in_range),
        st.lists(st.tuples(indices, st.booleans()), max_size=12),
    )
    @settings(max_examples=300)
    def test_matches_per_record_set(self, initial, records):
        bits = _bits(initial)
        before = bits.copy()
        if any(not 0 <= index < SIZE for index, _value in records):
            with pytest.raises(BitIndexError):
                bits.apply_records(records)
            assert bits == before
            assert bits.popcount == before.popcount
            return
        reference = before.copy()
        changed = sum(reference.set(index, value) for index, value in records)
        assert bits.apply_records(records) == changed
        assert bits == reference
        assert bits.popcount == reference.popcount
        assert bits.popcount == len(list(bits.iter_set_bits()))


class TestCounterBulk:
    @given(widths, counter_values, position_tuples)
    @settings(max_examples=300)
    def test_increment_many_matches_sequential(self, width, initial, positions):
        counters = _counters(width, initial)
        before = counters.to_bytes()
        if _out_of_range(positions):
            with pytest.raises(BitIndexError):
                counters.increment_many(positions)
            assert counters.to_bytes() == before
            assert counters.saturation_events == 0
            return
        reference = _counters(width, initial)
        risen = []
        for index in positions:
            if reference.get(index) == 0:
                risen.append(index)
            reference.increment(index)
        assert counters.increment_many(positions) == risen
        assert counters.to_bytes() == reference.to_bytes()
        assert counters.saturation_events == reference.saturation_events

    @given(widths, counter_values, position_tuples)
    @settings(max_examples=300)
    def test_decrement_many_matches_sequential(self, width, initial, positions):
        counters = _counters(width, initial)
        before = counters.to_bytes()
        reference = _counters(width, initial)
        fallen = []
        try:
            for index in positions:
                if reference.get(index) == 1 and reference.max_value != 1:
                    fallen.append(index)
                reference.decrement(index)
        except (BitIndexError, SummaryStateError) as exc:
            expected = (
                BitIndexError if _out_of_range(positions) else type(exc)
            )
            with pytest.raises(expected):
                counters.decrement_many(positions)
            assert counters.to_bytes() == before
            return
        assert counters.decrement_many(positions) == fallen
        assert counters.to_bytes() == reference.to_bytes()

    def test_repeated_position_validated_by_multiplicity(self):
        counters = CounterArray(SIZE, width=4)
        counters.increment(5)
        with pytest.raises(SummaryStateError, match="2 decrement"):
            counters.decrement_many((5, 5))
        assert counters.get(5) == 1

    def test_saturated_counter_is_unbounded(self):
        counters = CounterArray(SIZE, width=2)
        for _ in range(5):
            counters.increment(5)
        assert counters.saturation_events == 2
        assert counters.decrement_many((5, 5, 5, 5)) == []
        assert counters.get(5) == counters.max_value


class TestHotLoopsUseBulkOps:
    """Neither simulator's replay loop falls back to per-bit calls."""

    @pytest.fixture
    def no_per_bit_calls(self, monkeypatch):
        def forbidden(*_args, **_kwargs):
            raise AssertionError("per-bit call on a simulator hot path")

        monkeypatch.setattr(BitArray, "get", forbidden)
        monkeypatch.setattr(BitArray, "set", forbidden)
        monkeypatch.setattr(CounterArray, "increment", forbidden)
        monkeypatch.setattr(CounterArray, "decrement", forbidden)

    @pytest.fixture(scope="class")
    def trace(self):
        return generate_trace(
            SyntheticTraceConfig(
                name="bulk-guard",
                num_requests=1500,
                num_clients=16,
                num_documents=400,
                mean_size=2048,
                max_size=16 * 1024,
                seed=11,
            )
        )

    def test_sharing_simulator(self, trace, no_per_bit_calls):
        cfg = SummarySharingConfig(
            update_policy=ThresholdUpdatePolicy(0.01), expected_doc_size=2048
        )
        result = simulate_summary_sharing(trace, 4, 64 * 1024, cfg)
        assert result.remote_hits > 0 and result.messages.update_messages > 0

    def test_des(self, trace, no_per_bit_calls):
        result = run_scale_experiment(
            trace, num_proxies=4, cache_capacity=64 * 1024, origin_delay=0.1
        )
        assert result.remote_hit_ratio > 0 and result.update_messages > 0
