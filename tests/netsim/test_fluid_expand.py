"""``_expand_flows`` is bit-identical to the per-direction reference.

The production expansion lays every flow group's directions out once
and expands the whole batch in one pass; the reference
(``fluid_reference.py``) expands each (group, direction) on its own and
concatenates.  Every output column must match byte for byte, dictionary
code and value tables included, down to the order of tied timestamps.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.netsim import fluid
from repro.netsim.fluid import FluidConfig, FluidTrafficEngine, \
    _FlowArrays, _expand_flows
from repro.netsim.packets import MAX_SEGMENT
from tests.netsim.fluid_reference import reference_expand_flows
from tests.netsim.test_fluid import _exfil_overlay

_NUMERIC = ("timestamp", "src_ip", "dst_ip", "src_port", "dst_port",
            "protocol", "size", "payload_len", "flags", "ttl", "flow_id")
_STRINGS = ("direction", "app", "label")
_DIRS = ["in", "out"]
_APPS = ["web", "dns", "video"]
_LABELS = ["benign", "ddos"]


def _assert_same(got, want):
    assert len(got) == len(want)
    for name in _NUMERIC:
        a, b = np.asarray(getattr(got, name)), np.asarray(getattr(want, name))
        assert a.dtype == b.dtype, name
        assert a.tobytes() == b.tobytes(), name
    for name in _STRINGS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.codes.dtype == b.codes.dtype, name
        assert a.codes.tobytes() == b.codes.tobytes(), name
        assert list(a.values) == list(b.values), name
    assert list(got.payload) == list(want.payload)


#: sizes around the segment boundary, zero-byte directions and flows
#: large enough for the packet cap to bind
_SIZES = st.one_of(
    st.sampled_from([0.0, 1.0, 2.0, float(MAX_SEGMENT),
                     float(MAX_SEGMENT) + 1.0, 2.0 * MAX_SEGMENT]),
    st.floats(min_value=0.0, max_value=5e6, allow_nan=False,
              allow_infinity=False))
_FRACTIONS = st.one_of(st.sampled_from([0.0, 0.5, 1.0]),
                       st.floats(min_value=0.0, max_value=1.0))


@st.composite
def _spec(draw, first_id):
    m = draw(st.integers(min_value=0, max_value=12))
    # few distinct start times and durations: packets tie on timestamp
    starts = draw(st.lists(st.sampled_from([0.0, 0.25, 1.0, 1.0 + 1e-9]),
                           min_size=m, max_size=m))
    durations = draw(st.lists(st.sampled_from([1e-6, 0.5, 1.0, 3.0]),
                              min_size=m, max_size=m))
    return _FlowArrays(
        sizes=np.array(draw(st.lists(_SIZES, min_size=m, max_size=m)),
                       dtype=np.float64),
        starts=np.array(starts, dtype=np.float64),
        durations=np.array(durations, dtype=np.float64),
        fwd_fraction=np.array(draw(st.lists(_FRACTIONS, min_size=m,
                                            max_size=m)), dtype=np.float64),
        protocol=draw(st.sampled_from([6.0, 17.0])),
        src_u32=np.array(draw(st.lists(st.integers(0, 2**32 - 1),
                                       min_size=m, max_size=m)),
                         dtype=np.uint32),
        dst_u32=np.array(draw(st.lists(st.integers(0, 2**32 - 1),
                                       min_size=m, max_size=m)),
                         dtype=np.uint32),
        src_port=np.array(draw(st.lists(st.integers(0, 65535), min_size=m,
                                        max_size=m)), dtype=np.float64),
        dst_port=np.array(draw(st.lists(st.integers(0, 65535), min_size=m,
                                        max_size=m)), dtype=np.float64),
        app_code=draw(st.integers(0, len(_APPS) - 1)),
        label_code=draw(st.integers(0, len(_LABELS) - 1)),
        flow_id=np.arange(first_id, first_id + m, dtype=np.float64),
        src_internal=draw(st.booleans()),
        ttl=draw(st.sampled_from([60.0, 64.0])))


@st.composite
def _batches(draw):
    specs = []
    for k in range(draw(st.integers(min_value=1, max_value=5))):
        specs.append(draw(_spec(first_id=100 * k)))
    return specs, draw(st.sampled_from([1, 2, 3, 8, 64]))


@given(batch=_batches())
@settings(max_examples=300, deadline=None)
def test_matches_reference(batch):
    """TCP and UDP groups, both source sides, zero-byte directions, a
    binding packet cap and tied start times."""
    specs, max_packets = batch
    _assert_same(_expand_flows(specs, max_packets, _DIRS, _APPS, _LABELS),
                 reference_expand_flows(specs, max_packets, _DIRS, _APPS,
                                        _LABELS))


def test_ties_keep_group_then_direction_order():
    """Two groups' flows start together with one packet each way: the
    stable sort must leave tied packets in layout order."""
    def group(protocol, src_internal, first_id):
        return _FlowArrays(
            sizes=np.full(2, 200.0), starts=np.zeros(2),
            durations=np.ones(2), fwd_fraction=np.full(2, 0.5),
            protocol=protocol, src_u32=np.array([1, 2], dtype=np.uint32),
            dst_u32=np.array([3, 4], dtype=np.uint32),
            src_port=np.array([1000.0, 1001.0]),
            dst_port=np.array([53.0, 443.0]), app_code=first_id % 3,
            label_code=0, flow_id=np.array([first_id, first_id + 1.0]),
            src_internal=src_internal, ttl=64.0)
    specs = [group(17.0, True, 0), group(6.0, False, 10),
             group(6.0, True, 20)]
    got = _expand_flows(specs, 8, _DIRS, _APPS, _LABELS)
    _assert_same(got, reference_expand_flows(specs, 8, _DIRS, _APPS,
                                             _LABELS))
    assert np.all(got.timestamp == 0.5)
    # "in" first (group 0 rev, group 1 fwd, group 2 rev), then "out"
    # (group 0 fwd, group 1 rev, group 2 fwd): layout order per side
    assert got.direction.codes.tolist() == [0] * 6 + [1] * 6
    assert got.flow_id.tolist() == [0, 1, 10, 11, 20, 21] * 2
    assert got.src_port.tolist() == [53, 443, 1000, 1001, 53, 443,
                                     1000, 1001, 53, 443, 1000, 1001]


def test_all_zero_bytes_is_the_empty_batch():
    spec = _FlowArrays(
        sizes=np.zeros(3), starts=np.zeros(3), durations=np.ones(3),
        fwd_fraction=np.full(3, 0.5), protocol=6.0,
        src_u32=np.zeros(3, dtype=np.uint32),
        dst_u32=np.zeros(3, dtype=np.uint32), src_port=np.zeros(3),
        dst_port=np.zeros(3), app_code=0, label_code=0,
        flow_id=np.arange(3.0), src_internal=True, ttl=64.0)
    _assert_same(_expand_flows([spec], 8, _DIRS, _APPS, _LABELS),
                 reference_expand_flows([spec], 8, _DIRS, _APPS, _LABELS))


def _engine_batches():
    engine = FluidTrafficEngine(FluidConfig(
        n_users=20_000, n_cohorts=16, mean_flows_per_hour=240.0,
        tap_sample=0.2, max_packets_per_flow=8), seed=11)
    engine.add_overlay(_exfil_overlay(engine.now + 30.0,
                                      engine.now + 150.0))
    batches = []
    engine.add_packet_observer(batches.append)
    engine.run(180.0)
    return batches


def test_engine_stream_matches_reference(monkeypatch):
    """A whole run with overlays: swapping the reference expansion in
    changes no batch."""
    batches = _engine_batches()
    monkeypatch.setattr(fluid, "_expand_flows", reference_expand_flows)
    reference = _engine_batches()
    assert len(batches) == len(reference) > 0
    for got, want in zip(batches, reference):
        _assert_same(got, want)
