"""``weighted_max_min`` is bit-identical to the masked reference loop.

The production allocator does a filling round in a few whole-array ops
and the links' arithmetic on Python floats; the reference
(``fluid_reference.py``) is the loop it replaced.  Both must return the
same bytes, not merely close values: the congestion factor feeds
packet timestamps, and the golden stream digest pins those.
"""

import numpy as np
from hypothesis import example, given, settings, strategies as st

from repro.netsim.fluid import RATE_EPSILON, FluidConfig, \
    FluidTrafficEngine, weighted_max_min
from tests.netsim.fluid_reference import reference_weighted_max_min

#: demands drawn around the activity threshold as well as at scale
_DEMANDS = st.one_of(
    st.just(0.0), st.just(RATE_EPSILON),
    st.floats(min_value=0.5 * RATE_EPSILON, max_value=2 * RATE_EPSILON),
    st.floats(min_value=0.0, max_value=1e10, allow_nan=False,
              allow_infinity=False))
_WEIGHTS = st.one_of(st.just(0.0),
                     st.floats(min_value=0.0, max_value=1e4,
                               allow_nan=False, allow_infinity=False))
_CAPACITIES = st.one_of(st.just(0.0),
                        st.floats(min_value=0.0, max_value=1e11,
                                  allow_nan=False, allow_infinity=False))


def _assert_same(demand, weights, membership, capacity):
    got = weighted_max_min(demand, weights, membership, capacity)
    want = reference_weighted_max_min(demand, weights, membership,
                                      capacity)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@st.composite
def _problems(draw, max_classes=24):
    n = draw(st.integers(min_value=1, max_value=max_classes))
    n_links = draw(st.integers(min_value=1, max_value=6))
    demand = np.array(draw(st.lists(_DEMANDS, min_size=n, max_size=n)))
    weights = np.array(draw(st.lists(_WEIGHTS, min_size=n, max_size=n)))
    capacity = np.array(draw(st.lists(_CAPACITIES, min_size=n_links,
                                      max_size=n_links)))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    density = draw(st.sampled_from([0.0, 0.3, 0.7, 1.0]))
    membership = np.random.default_rng(seed).random((n_links, n)) < density
    return demand, weights, membership, capacity


@given(problem=_problems())
@settings(max_examples=400, deadline=None)
@example(problem=(np.array([5.0, 5.0, 0.0]), np.array([1.0, 0.0, 2.0]),
                  np.array([[True, False, True], [False, False, False]]),
                  np.array([0.0, 3.0])))
def test_matches_reference(problem):
    """Zero-capacity links, classes on no link, zero weights and
    demands at the activity threshold all take the same path."""
    _assert_same(*problem)


@given(n=st.integers(min_value=100, max_value=700),
       n_links=st.integers(min_value=2, max_value=10),
       seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_matches_reference_at_hundreds_of_classes(n, n_links, seed):
    """BLAS may sum a long dot product in a length-dependent order;
    both sides must still see the same operands."""
    rng = np.random.default_rng(seed)
    demand = rng.lognormal(18.0, 3.0, n) * (rng.random(n) < 0.9)
    weights = np.floor(rng.lognormal(2.0, 2.0, n))
    membership = rng.random((n_links, n)) < 0.5
    membership[0] = True
    capacity = rng.lognormal(22.0, 2.0, n_links)
    _assert_same(demand, weights, membership, capacity)


def test_several_links_saturate_in_one_round():
    """Identical links fill at the same delta: every class they carry
    freezes in that round."""
    demand = np.full(6, 1e9)
    membership = np.zeros((3, 6), dtype=bool)
    membership[0, :3] = membership[1, 3:] = True
    membership[2, ::2] = True
    capacity = np.array([300.0, 300.0, 1e12])
    _assert_same(demand, np.ones(6), membership, capacity)
    alloc = weighted_max_min(demand, np.ones(6), membership, capacity)
    assert np.array_equal(alloc, np.full(6, 100.0))


def test_engine_geometry_matches_reference():
    """The engine's own link set and class table, at a narrow uplink so
    the round that fills a link is taken."""
    engine = FluidTrafficEngine(
        FluidConfig(n_users=50_000, n_cohorts=64, uplink_gbps=0.5), seed=3)
    rng = np.random.default_rng(5)
    n = engine.membership.shape[1]
    for _ in range(20):
        flows = np.floor(rng.lognormal(1.0, 2.0, n)) * (rng.random(n) < 0.8)
        demand = np.minimum(flows * rng.lognormal(17.0, 2.0, n),
                            flows * engine.class_flow_cap)
        _assert_same(demand, flows, engine.membership,
                     engine.link_capacity)
