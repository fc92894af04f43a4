"""Behavior cohorts: population-level aggregation of per-user rates.

The discrete engine draws one gamma activity multiplier per user and
schedules per-user Poisson flow arrivals.  At 10^6 users that is 10^8
events per simulated hour — infeasible.  The fluid engine keeps the
same population model but collapses it: users are sorted by activity
and binned into ``n_cohorts`` equal-count cohorts, each carrying the
*mean* activity of its members.  Because every bin's ``count x mean``
equals the exact sum of its members' activities, the population
aggregate rate is preserved exactly (up to float associativity):

    sum_u activity_u  ==  sum_c count_c * activity_c

while the spread across cohorts preserves the gamma heterogeneity
("top talkers" land in the top cohorts).  Property-tested in
``tests/netsim/test_cohorts.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.netsim.users import diurnal_factor, sample_activities


@dataclass
class CohortTable:
    """Equal-count activity cohorts for one campus population."""

    counts: np.ndarray      # int64 [C]: users per cohort
    activity: np.ndarray    # float64 [C]: mean activity multiplier
    n_users: int

    @property
    def n_cohorts(self) -> int:
        return len(self.counts)

    @property
    def activity_sum(self) -> float:
        """Exact population activity mass (== per-user sum)."""
        return float(np.dot(self.counts, self.activity))

    def arrival_intensity(self, mean_flows_per_hour: float,
                          time_s: float) -> np.ndarray:
        """Per-cohort aggregate flow-arrival rate (flows/second).

        The fluid analog of summing
        :meth:`~repro.netsim.users.UserPopulation.arrival_rate` over a
        cohort's members: ``count * mean_activity * base * diurnal``.
        """
        base_per_s = mean_flows_per_hour / 3600.0
        return (self.counts * self.activity
                * (base_per_s * diurnal_factor(time_s)))

    def total_expected_rate(self, mean_flows_per_hour: float,
                            time_s: float) -> float:
        """Population flow-arrival rate; matches the per-user sum."""
        return float(self.arrival_intensity(mean_flows_per_hour,
                                            time_s).sum())


def cohorts_from_activities(activities: np.ndarray,
                            n_cohorts: int) -> CohortTable:
    """Bin given per-user activities into equal-count cohorts.

    Split out from :func:`build_cohorts` so the equivalence tests can
    feed the *same* gamma draws to both the per-user sum and the
    cohort aggregate.
    """
    if n_cohorts <= 0:
        raise ValueError("need at least one cohort")
    # ``ordered`` is read only through bin sums, so the sort need not
    # be stable: equal floats are bitwise equal, and +0.0 and -0.0 add
    # alike to a running sum that starts at +0.0 (``+ 0.0`` below turns
    # cumsum's ``a[0] + ...`` into ``0.0 + a[0] + ...``).  NaNs sort
    # last in every kind, but the SIMD sorts rewrite them as the
    # canonical NaN, so the tail gets the input's NaNs back in input
    # order.  The table is byte-identical to a stable sort's.
    values = np.asarray(activities, dtype=np.float64)
    ordered = np.sort(values)
    n_users = len(ordered)
    if n_users == 0:
        raise ValueError("cohorts need at least one user")
    if np.isnan(ordered[-1]):
        nans = np.isnan(values)
        ordered[n_users - int(nans.sum()):] = values[nans]
    bounds = np.linspace(0, n_users, min(n_cohorts, n_users) + 1)
    bounds = bounds.astype(np.int64)
    counts = np.diff(bounds)
    prefix = np.zeros(n_users + 1)
    np.cumsum(ordered, out=prefix[1:])
    sums = np.diff(prefix[bounds] + 0.0)
    keep = counts > 0
    counts = counts[keep]
    return CohortTable(counts=counts, activity=sums[keep] / counts,
                       n_users=n_users)


def build_cohorts(n_users: int, n_cohorts: int,
                  rng: np.random.Generator) -> CohortTable:
    """Draw the population's gamma activities and bin them into cohorts.

    Uses the same gamma parameters as the discrete
    :class:`~repro.netsim.users.UserPopulation`, so small-N fluid runs
    are statistically comparable to discrete runs with the same seed
    family.
    """
    if n_users <= 0:
        raise ValueError("population must be positive")
    return cohorts_from_activities(sample_activities(n_users, rng),
                                   n_cohorts)
