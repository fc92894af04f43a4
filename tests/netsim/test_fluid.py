"""Fluid engine units: config, allocation, determinism, overlays."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.netsim.campus import make_fluid_campus
from repro.netsim.fluid import (
    CAMPUS_BASE_U32,
    INTERNET_BASE_U32,
    FluidConfig,
    FluidOverlay,
    FluidTrafficEngine,
    RATE_EPSILON,
    weighted_max_min,
)
from repro.netsim.packets import PacketColumns


#: SHA-256 of the golden run's batches (every column) and summary
#: totals.  It pins the RNG stream: any change to the draw order, the
#: class draw or tap synthesis moves it, and must re-pin it on purpose.
GOLDEN_DIGEST = (
    "01f79ea5fe102889f3f17232c35f1499e8daeec738c7c4a49f869ac5d0d2758d")


def _exfil_overlay(start, end, flows_per_second=2.0):
    return FluidOverlay(
        label="exfiltration", app="exfil", start_time=start,
        end_time=end, flows_per_second=flows_per_second,
        size_sampler=lambda rng, n: np.full(n, 50_000.0),
        src_ips=np.array([CAMPUS_BASE_U32 + 3], dtype=np.uint32),
        dst_ips=np.array([INTERNET_BASE_U32 + 9], dtype=np.uint32),
        src_internal=True)


def _stream_digest(batches, summary) -> str:
    digest = hashlib.sha256()
    for batch in batches:
        for name in PacketColumns.__slots__:
            if name.startswith("_"):
                continue
            column = getattr(batch, name)
            digest.update(name.encode())
            if name == "payload":
                for fragment in column:
                    digest.update(len(fragment).to_bytes(4, "little"))
                    digest.update(fragment)
            elif hasattr(column, "codes"):
                digest.update(np.asarray(column.codes, np.int64).tobytes())
                digest.update("\0".join(column.values).encode())
            else:
                array = np.ascontiguousarray(column)
                digest.update(array.dtype.str.encode())
                digest.update(array.tobytes())
    digest.update(repr((
        summary.total_flows, summary.total_tap_flows,
        summary.overlay_flows, summary.total_packets,
        float(summary.total_bytes).hex())).encode())
    return digest.hexdigest()


def _engine(seed=0, **overrides) -> FluidTrafficEngine:
    defaults = dict(n_users=2_000, n_cohorts=16, tick_seconds=60.0,
                    mean_flows_per_hour=240.0)
    defaults.update(overrides)
    return FluidTrafficEngine(FluidConfig(**defaults), seed=seed)


class TestConfig:
    def test_defaults_valid(self):
        config = FluidConfig()
        assert config.n_users == 10_000
        assert config.tap_sample == 1.0

    @pytest.mark.parametrize("bad", [
        dict(n_users=0), dict(n_users=-5),
        dict(tap_sample=0.0), dict(tap_sample=1.5),
        dict(tick_seconds=0.0), dict(tick_seconds=-1.0),
    ])
    def test_invalid_rejected(self, bad):
        with pytest.raises(ValueError):
            FluidConfig(**bad)


class TestWeightedMaxMin:
    @given(
        demand=st.lists(st.floats(min_value=0.0, max_value=1e9,
                                  allow_nan=False, allow_infinity=False),
                        min_size=1, max_size=12),
        weights=st.lists(st.floats(min_value=0.1, max_value=100.0),
                         min_size=12, max_size=12),
        capacity=st.lists(st.floats(min_value=1e3, max_value=1e9),
                          min_size=3, max_size=3),
        seed=st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=200, deadline=None)
    def test_invariants(self, demand, weights, capacity, seed):
        demand = np.asarray(demand)
        n = len(demand)
        weights = np.asarray(weights[:n])
        capacity = np.asarray(capacity)
        rng = np.random.default_rng(seed)
        membership = rng.random((3, n)) < 0.6
        membership[0, :] = True     # shared uplink, like the engine's
        alloc = weighted_max_min(demand, weights, membership, capacity)
        tol = 1e-6 * max(capacity.max(), demand.max(), 1.0)
        assert (alloc >= -tol).all()
        assert (alloc <= demand + tol).all()
        assert (membership @ alloc <= capacity + tol).all()
        # Max-min completeness: a class short of its demand must be
        # bottlenecked on some saturated link it crosses.
        load = membership @ alloc
        saturated = load >= capacity - max(tol, RATE_EPSILON * 10)
        short = demand - alloc > tol + RATE_EPSILON
        for i in np.nonzero(short)[0]:
            assert membership[saturated, i].any()

    def test_ample_capacity_meets_all_demand(self):
        demand = np.array([100.0, 50.0, 10.0])
        membership = np.ones((1, 3), dtype=bool)
        alloc = weighted_max_min(demand, np.ones(3), membership,
                                 np.array([1e6]))
        assert alloc == pytest.approx(demand)

    def test_equal_weights_share_bottleneck_equally(self):
        demand = np.array([1e9, 1e9])
        membership = np.ones((1, 2), dtype=bool)
        alloc = weighted_max_min(demand, np.ones(2), membership,
                                 np.array([100.0]))
        assert alloc == pytest.approx([50.0, 50.0])

    def test_weights_skew_the_shares(self):
        demand = np.array([1e9, 1e9])
        membership = np.ones((1, 2), dtype=bool)
        alloc = weighted_max_min(demand, np.array([3.0, 1.0]),
                                 membership, np.array([100.0]))
        assert alloc == pytest.approx([75.0, 25.0])

    def test_unused_link_leaves_other_classes_alone(self):
        demand = np.array([40.0, 70.0])
        membership = np.array([[True, False], [False, True]])
        alloc = weighted_max_min(demand, np.ones(2), membership,
                                 np.array([50.0, 50.0]))
        assert alloc == pytest.approx([40.0, 50.0])


class TestDeterminism:
    def _batches(self, seed):
        engine = _engine(seed=seed)
        batches = []
        engine.add_packet_observer(batches.append)
        summary = engine.run(300.0)
        return batches, summary

    def test_identical_seed_bit_identical_batches(self):
        a_batches, a_summary = self._batches(7)
        b_batches, b_summary = self._batches(7)
        assert len(a_batches) == len(b_batches) > 0
        for a, b in zip(a_batches, b_batches):
            for fld in ("timestamp", "src_ip", "dst_ip", "src_port",
                        "dst_port", "protocol", "size", "payload_len",
                        "flags", "ttl", "flow_id"):
                assert np.array_equal(np.asarray(getattr(a, fld)),
                                      np.asarray(getattr(b, fld))), fld
            for fld in ("direction", "app", "label"):
                ca, cb = getattr(a, fld), getattr(b, fld)
                assert np.array_equal(ca.codes, cb.codes)
                assert list(ca.values) == list(cb.values)
        assert a_summary.total_packets == b_summary.total_packets
        assert a_summary.total_bytes == b_summary.total_bytes

    def test_golden_stream_digest(self):
        """Seed 7 with tap sampling, so the run takes every branch of
        the class draw (binomial tap counts, small-count exact sums,
        moment-matched draws) plus an overlay."""
        engine = _engine(seed=7, n_users=5_000, tap_sample=0.05)
        engine.add_overlay(_exfil_overlay(engine.now + 60.0,
                                          engine.now + 120.0))
        batches = []
        engine.add_packet_observer(batches.append)
        summary = engine.run(180.0)
        assert summary.overlay_flows > 0
        assert _stream_digest(batches, summary) == GOLDEN_DIGEST

    def test_different_seeds_differ(self):
        a_batches, _ = self._batches(1)
        b_batches, _ = self._batches(2)
        assert not all(
            len(a) == len(b)
            and np.array_equal(a.timestamp, b.timestamp)
            for a, b in zip(a_batches, b_batches))


class TestTickLoop:
    def test_batches_time_sorted_and_inside_tick(self):
        engine = _engine(seed=3)
        batches = []
        engine.add_packet_observer(batches.append)
        start = engine.now
        engine.run(180.0)
        assert batches
        lo = start
        for batch in batches:
            ts = batch.timestamp
            assert np.all(np.diff(ts) >= 0)
            assert ts[0] >= lo - 1e-9
            lo += 60.0

    def test_addresses_follow_the_plan(self):
        engine = _engine(seed=4)
        batches = []
        engine.add_packet_observer(batches.append)
        engine.run(60.0)
        batch = batches[0]
        src = np.asarray(batch.src_ip, dtype=np.uint64)
        dst = np.asarray(batch.dst_ip, dtype=np.uint64)
        out = batch.direction.codes == batch.direction.code_of("out")
        campus_hi = CAMPUS_BASE_U32 + engine.config.n_users
        # Outbound: campus source, internet destination; inbound mirrors.
        assert np.all((src[out] >= CAMPUS_BASE_U32)
                      & (src[out] < campus_hi))
        assert np.all(dst[out] >= INTERNET_BASE_U32)
        assert np.all(src[~out] >= INTERNET_BASE_U32)
        assert np.all((dst[~out] >= CAMPUS_BASE_U32)
                      & (dst[~out] < campus_hi))

    def test_congestion_backlogs_under_narrow_uplink(self):
        narrow = _engine(seed=5, uplink_gbps=1e-4, core_gbps=1e-4,
                         distribution_gbps=1e-4)
        wide = _engine(seed=5)
        narrow.run(300.0)
        wide.run(300.0)
        # The narrow uplink cannot drain the offered load within the
        # run; the backlog the fluid state carries is the queue.
        assert narrow.backlog_bytes.sum() > 1e6
        assert wide.backlog_bytes.sum() < narrow.backlog_bytes.sum()

    def test_tap_sampling_thins_packets_not_demand(self):
        full = _engine(seed=6)
        thin = _engine(seed=6, tap_sample=0.05)
        s_full = full.run(300.0)
        s_thin = thin.run(300.0)
        assert s_thin.total_packets < s_full.total_packets / 4
        # Demand accounting still covers the whole population.
        assert s_thin.total_bytes == pytest.approx(
            s_full.total_bytes, rel=0.35)

    def test_summary_counters_match_observed_batches(self):
        engine = _engine(seed=8)
        seen = []
        engine.add_packet_observer(seen.append)
        summary = engine.run(120.0)
        assert summary.total_packets == sum(len(b) for b in seen)
        assert len(summary.ticks) == 2
        assert summary.total_flows >= summary.total_tap_flows > 0

    def test_collect_flows_arrays(self):
        engine = _engine(seed=9)
        summary = engine.run(120.0, collect_flows=True)
        n = summary.total_tap_flows
        assert len(summary.flow_sizes) == n
        assert len(summary.flow_starts) == n
        assert len(summary.flow_durations) == n
        assert len(summary.flow_apps) == n
        assert (summary.flow_sizes > 0).all()
        assert (summary.flow_durations > 0).all()

    def test_quiet_population_is_fine(self):
        engine = _engine(seed=10, n_users=1, n_cohorts=1,
                         mean_flows_per_hour=1e-6)
        batches = []
        engine.add_packet_observer(batches.append)
        summary = engine.run(60.0)
        # Empty batches are never delivered to observers.
        assert all(len(b) for b in batches)
        assert summary.total_packets == sum(len(b) for b in batches)

    def test_flow_ids_monotonic(self):
        engine = _engine(seed=11)
        first = engine.new_flow_ids(5)
        second = engine.new_flow_ids(3)
        assert list(first) == [0, 1, 2, 3, 4]
        assert list(second) == [5, 6, 7]


class TestOverlays:
    def test_overlay_packets_labeled_and_windowed(self):
        engine = _engine(seed=12)
        start = engine.now
        engine.add_overlay(_exfil_overlay(start + 60.0, start + 120.0))
        batches = []
        engine.add_packet_observer(batches.append)
        engine.run(180.0)
        merged_labels = []
        for batch in batches:
            merged_labels.extend(batch.label.decode(i)
                                 for i in range(len(batch)))
            assert np.all(np.diff(batch.timestamp) >= 0)
        labels = set(merged_labels)
        assert labels == {"benign", "exfiltration"}
        # Overlay packets stay inside the overlay window.
        for batch in batches:
            evil = batch.label.codes == batch.label.code_of(
                "exfiltration") if "exfiltration" in batch.label.values \
                else np.zeros(len(batch), dtype=bool)
            ts = batch.timestamp[evil]
            if len(ts):
                assert ts.min() >= start + 60.0 - 1e-6
                assert ts.max() <= start + 125.0

    def test_overlay_flows_are_counted(self):
        engine = _engine(seed=14, tap_sample=0.1)
        engine.add_overlay(_exfil_overlay(engine.now + 30.0,
                                          engine.now + 150.0,
                                          flows_per_second=5.0))
        batches = []
        engine.add_packet_observer(batches.append)
        summary = engine.run(180.0)
        assert summary.overlay_flows > 0
        assert summary.overlay_flows == sum(
            t.overlay_flows for t in summary.ticks)
        # Every issued flow id is a tap flow or an overlay flow, and
        # every one of them put packets on the tap.
        issued = summary.total_tap_flows + summary.overlay_flows
        assert engine.new_flow_ids(1)[0] == issued
        flow_ids = np.unique(np.concatenate([b.flow_id for b in batches]))
        assert np.array_equal(flow_ids, np.arange(issued))
        assert summary.total_packets == sum(len(b) for b in batches)

    def test_overlay_outside_window_is_silent(self):
        engine = _engine(seed=13)
        engine.add_overlay(FluidOverlay(
            label="late", app="x",
            start_time=engine.now + 9_000.0,
            end_time=engine.now + 9_060.0,
            flows_per_second=50.0,
            size_sampler=lambda rng, n: np.full(n, 1000.0),
            src_ips=np.array([INTERNET_BASE_U32], dtype=np.uint32),
            dst_ips=np.array([CAMPUS_BASE_U32], dtype=np.uint32)))
        batches = []
        engine.add_packet_observer(batches.append)
        engine.run(120.0)
        for batch in batches:
            assert "late" not in batch.label.values


class TestFactory:
    def test_make_fluid_campus_maps_profile(self):
        engine = make_fluid_campus("tiny", n_users=500, seed=7)
        assert engine.config.n_users == 500
        assert engine.config.uplink_gbps == pytest.approx(1.0)
        assert isinstance(engine, FluidTrafficEngine)

    def test_unknown_profile_rejected(self):
        with pytest.raises(KeyError, match="tiny"):
            make_fluid_campus("no-such-campus")

    def test_batches_are_packet_columns(self):
        engine = make_fluid_campus("tiny", n_users=200, seed=1,
                                   tick_seconds=30.0)
        batches = []
        engine.add_packet_observer(batches.append)
        engine.run(30.0)
        assert batches and all(
            isinstance(b, PacketColumns) for b in batches)
