"""Cohort aggregation: the population rate survives the collapse.

The fluid engine's core claim is that binning users into equal-count
activity cohorts preserves the population's aggregate flow-arrival
rate *exactly* (count x mean == member sum per bin), for any activity
draw and any cohort count.  Property-tested here, against both the raw
activity sum and the discrete :class:`UserPopulation`'s per-user rate.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.netsim.cohorts import (
    CohortTable,
    build_cohorts,
    cohorts_from_activities,
)
from repro.netsim.users import UserPopulation, diurnal_factor

activity_arrays = st.lists(
    st.floats(min_value=1e-6, max_value=50.0,
              allow_nan=False, allow_infinity=False),
    min_size=1, max_size=400,
).map(lambda xs: np.asarray(xs, dtype=np.float64))


@given(activities=activity_arrays,
       n_cohorts=st.integers(min_value=1, max_value=64))
@settings(max_examples=200, deadline=None)
def test_cohort_activity_mass_equals_member_sum(activities, n_cohorts):
    table = cohorts_from_activities(activities, n_cohorts)
    assert table.n_users == len(activities)
    assert int(table.counts.sum()) == len(activities)
    assert table.activity_sum == pytest.approx(
        float(activities.sum()), rel=1e-12, abs=1e-12)


@given(activities=activity_arrays,
       n_cohorts=st.integers(min_value=1, max_value=64),
       time_s=st.floats(min_value=0.0, max_value=7 * 86_400.0,
                        allow_nan=False, allow_infinity=False),
       flows_per_hour=st.floats(min_value=1.0, max_value=600.0))
@settings(max_examples=200, deadline=None)
def test_aggregate_arrival_rate_equals_per_user_sum(
        activities, n_cohorts, time_s, flows_per_hour):
    """The rate the fluid engine integrates == the discrete sum."""
    table = cohorts_from_activities(activities, n_cohorts)
    base = flows_per_hour / 3600.0
    per_user = float(activities.sum()) * base * diurnal_factor(time_s)
    assert table.total_expected_rate(flows_per_hour, time_s) \
        == pytest.approx(per_user, rel=1e-9)


@given(activities=activity_arrays,
       n_cohorts=st.integers(min_value=1, max_value=64))
@settings(max_examples=200, deadline=None)
def test_cohorts_are_equal_count_and_activity_sorted(activities, n_cohorts):
    table = cohorts_from_activities(activities, n_cohorts)
    # Equal-count binning: sizes differ by at most one user.
    assert table.counts.max() - table.counts.min() <= 1
    # Built from the sorted activity array, so cohort means ascend and
    # heavy-tailed "top talkers" stay visible in the top cohorts.
    assert np.all(np.diff(table.activity) >= -1e-12)
    # Never more cohorts than users.
    assert table.n_cohorts <= min(n_cohorts, len(activities))


def test_matches_discrete_user_population_rate():
    """Same gamma draw through both models -> identical expected rate."""
    hosts = [f"h{i}" for i in range(500)]
    population = UserPopulation(hosts, np.random.default_rng(42),
                                mean_flows_per_hour=120.0)
    activities = np.array([u.activity for u in population.users])
    table = cohorts_from_activities(activities, 32)
    for hour in (3.0, 8.5, 12.3, 15.0, 23.9):
        t = hour * 3600.0
        assert table.total_expected_rate(120.0, t) == pytest.approx(
            population.total_expected_rate(t), rel=1e-9)


def test_build_cohorts_deterministic_per_seed():
    a = build_cohorts(10_000, 32, np.random.default_rng(7))
    b = build_cohorts(10_000, 32, np.random.default_rng(7))
    assert np.array_equal(a.counts, b.counts)
    assert np.array_equal(a.activity, b.activity)


def test_more_cohorts_than_users_collapses():
    table = cohorts_from_activities(np.array([2.0, 1.0, 3.0]), 64)
    assert table.n_cohorts == 3
    assert np.array_equal(table.counts, [1, 1, 1])
    assert np.array_equal(table.activity, [1.0, 2.0, 3.0])


def test_invalid_inputs_rejected():
    with pytest.raises(ValueError):
        cohorts_from_activities(np.array([1.0]), 0)
    with pytest.raises(ValueError):
        cohorts_from_activities(np.empty(0), 4)
    with pytest.raises(ValueError):
        build_cohorts(0, 4, np.random.default_rng(0))


def test_cohort_table_shape():
    table = build_cohorts(1000, 16, np.random.default_rng(3))
    assert isinstance(table, CohortTable)
    assert table.n_cohorts == 16
    assert table.counts.sum() == 1000
    assert (table.activity > 0).all()


def _stable_reference(activities, n_cohorts):
    """Equal-count binning as specified: a stable sort, then each bin's
    sum read off a running sum that starts at +0.0.

    The sums use numpy array arithmetic, as the code under test does:
    IEEE 754 leaves open which payload ``nan_a + nan_b`` keeps, and
    CPython's float add keeps either one from run to run."""
    ordered = np.sort(np.asarray(activities, dtype=np.float64),
                      kind="stable")
    n_users = len(ordered)
    bounds = np.linspace(0, n_users, min(n_cohorts, n_users) + 1)
    bounds = bounds.astype(np.int64)
    prefix = np.concatenate(([0.0], np.cumsum(ordered))) + 0.0
    counts = np.diff(bounds)
    sums = prefix[bounds[1:]] - prefix[bounds[:-1]]
    keep = counts > 0
    return counts[keep], sums[keep] / counts[keep]


def _nans():
    """NaNs of either sign with arbitrary payloads, quiet or signaling."""
    return st.builds(
        lambda sign, payload: np.array(
            [(sign << 63) | (0x7FF << 52) | payload],
            dtype=np.uint64).view(np.float64)[0],
        st.integers(0, 1), st.integers(1, (1 << 52) - 1))


_tie_heavy = st.one_of(
    # a handful of distinct values, so most draws tie
    st.lists(st.sampled_from([0.5, 1.0, 2.0, 7.25]),
             min_size=1, max_size=300),
    # signed zeros and NaNs mixed into ordinary activities
    st.lists(st.one_of(st.sampled_from([0.0, -0.0, 1.0, 3.5, -2.0]),
                       _nans()),
             min_size=1, max_size=300),
    # a single user
    st.lists(st.one_of(st.floats(allow_nan=False), _nans()),
             min_size=1, max_size=1),
).map(lambda xs: np.asarray(xs, dtype=np.float64))


@given(activities=_tie_heavy,
       n_cohorts=st.one_of(st.integers(min_value=1, max_value=64),
                           st.integers(min_value=300, max_value=1_000)))
@settings(max_examples=400, deadline=None)
def test_cohorts_bit_identical_to_stable_sort(activities, n_cohorts):
    """The sort is unstable; the table is the stable sort's, bit for
    bit, through ties, signed zeros, NaN payloads, one user and more
    cohorts than users."""
    before = activities.tobytes()
    with np.errstate(invalid="ignore"):      # inf - inf, NaN payloads
        table = cohorts_from_activities(activities, n_cohorts)
        counts, activity = _stable_reference(activities, n_cohorts)
    assert activities.tobytes() == before      # the caller's array
    assert table.counts.tobytes() == counts.tobytes()
    assert table.activity.tobytes() == activity.tobytes()


#: SHA-256 of ``counts`` then ``activity`` bytes of the 1M-user,
#: 32-cohort table at seed 1, as the stable-sort binning built it.
MILLION_USER_TABLE_SHA256 = (
    "d99c92957f9e4abad643b2718a96d1472fdabce162a9478479f361a7850a7eef")


def test_million_user_table_digest():
    table = build_cohorts(1_000_000, 32, np.random.default_rng(1))
    digest = hashlib.sha256()
    digest.update(table.counts.tobytes())
    digest.update(table.activity.tobytes())
    assert digest.hexdigest() == MILLION_USER_TABLE_SHA256
