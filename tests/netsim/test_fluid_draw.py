"""Sample-first class draw vs the exact per-flow reference, in distribution.

The fluid engine draws border and tap counts per (cohort, app) class,
exact sizes only for tapped flows, and untapped byte mass as exact
sums (small counts) or moment-matched lognormals (large counts).  The
reference (``tests/netsim/exact_draw.py``) draws every campus flow.
Under a congested uplink with ``tap_sample < 1`` both engines run the
same seeds; per app, three quantities are compared with two-sample
Kolmogorov–Smirnov tests:

* per-class tick bytes, each divided by its class's expected border
  bytes so cohorts pool (every tick and cohort);
* ``phi``, the congestion factor, averaged over cohorts at the last
  tick (one value per seed), for apps the uplink actually throttles;
* tap-flow counts summed over cohorts (one value per seed and tick).

Family-wise level 0.01, Bonferroni-corrected over every test run.
The same tests must reject the sample-first values scaled by 1.15, so
they resolve errors well inside the ±25% regression bands of
``test_fluid_equivalence.py``.  Seeds are fixed: the outcome is
deterministic.
"""

import numpy as np
import pytest
from scipy import stats

from repro.netsim import fluid
from repro.netsim.fluid import (
    EXACT_SUM_MAX,
    RATE_EPSILON,
    FluidConfig,
    FluidTrafficEngine,
)
from tests.netsim.exact_draw import exact_draw_classes

SEEDS = range(40)
TICKS = 6
#: ~64 Gbps offered against a 2 Gbps uplink; ~1/4 of the classes carry
#: an expected untapped count at or below EXACT_SUM_MAX.
CONFIG = dict(n_users=20_000, n_cohorts=8, tick_seconds=60.0,
              mean_flows_per_hour=240.0, tap_sample=0.1, uplink_gbps=2.0)
FAMILY_LEVEL = 0.01
SCALE_ERROR = 1.15


def _record(seed, draw, monkeypatch):
    """One run; per tick, the class draw's inputs and outputs and phi."""
    engine = FluidTrafficEngine(FluidConfig(**CONFIG), seed=seed)
    rec = {"border_rate": [], "bytes": [], "taps": [], "phi": []}
    allocate = fluid.weighted_max_min

    def recorded_draw(rng, rate, profiles, p_internet, tap_sample):
        out = draw(rng, rate, profiles, p_internet, tap_sample)
        taps = np.zeros(rate.size)
        for _, _, class_of in out[2]:
            taps += np.bincount(class_of, minlength=rate.size)
        rec["border_rate"].append(rate * p_internet[None, :])
        rec["bytes"].append(out[0])
        rec["taps"].append(taps.reshape(rate.shape))
        return out

    def recorded_allocation(demand, weights, membership, capacity):
        alloc = allocate(demand, weights, membership, capacity)
        phi = np.where(demand > RATE_EPSILON,
                       np.clip(alloc / np.maximum(demand, RATE_EPSILON),
                               1e-3, 1.0), 1.0)
        rec["phi"].append(phi.reshape(-1, len(engine.profiles)))
        return alloc

    with monkeypatch.context() as patch:
        patch.setattr(fluid, "draw_classes", recorded_draw)
        patch.setattr(fluid, "weighted_max_min", recorded_allocation)
        engine.run(TICKS * CONFIG["tick_seconds"])
    return engine, rec


@pytest.fixture(scope="module")
def runs():
    with pytest.MonkeyPatch.context() as monkeypatch:
        exact = [_record(s, exact_draw_classes, monkeypatch)
                 for s in SEEDS]
        sample_first = [_record(s, fluid.draw_classes, monkeypatch)
                        for s in SEEDS]
    return exact, sample_first


def _statistics(runs):
    """``{(quantity, app): values}`` for one engine's runs."""
    engine = runs[0][0]
    means = np.array([p.size_sampler.mean for p in engine.profiles])
    out = {}
    for a, profile in enumerate(engine.profiles):
        out[("bytes", profile.name)] = np.concatenate([
            rec["bytes"][k][:, a] / (rec["border_rate"][k][:, a] * means[a])
            for _, rec in runs for k in range(TICKS)])
        out[("phi", profile.name)] = np.array([
            rec["phi"][-1][:, a].mean() for _, rec in runs])
        out[("taps", profile.name)] = np.array([
            rec["taps"][k][:, a].sum()
            for _, rec in runs for k in range(TICKS)])
    return out


def _compared(runs):
    exact, sample_first = (_statistics(r) for r in runs)
    # phi is only informative where the uplink throttles the app.
    keys = [k for k in exact
            if k[0] != "phi" or np.any(exact[k] < 1.0)]
    return keys, exact, sample_first


def test_configuration_reaches_both_untapped_regimes(runs):
    rates = np.concatenate([r.ravel() for _, rec in runs[1]
                            for r in rec["border_rate"]])
    untapped = rates * (1.0 - CONFIG["tap_sample"])
    assert np.mean(untapped <= EXACT_SUM_MAX) > 0.1
    assert np.mean(untapped > EXACT_SUM_MAX) > 0.5
    keys, exact, _ = _compared(runs)
    congested = [k for k in keys if k[0] == "phi"]
    assert congested and all(exact[k].mean() < 0.5 for k in congested)


def test_sample_first_matches_exact_in_distribution(runs):
    keys, exact, sample_first = _compared(runs)
    level = FAMILY_LEVEL / len(keys)
    p_values = {k: stats.ks_2samp(exact[k], sample_first[k]).pvalue
                for k in keys}
    rejected = {k: p for k, p in p_values.items() if p < level}
    assert not rejected, (level, rejected)


def test_comparison_resolves_errors_inside_the_regression_bands(runs):
    keys, exact, sample_first = _compared(runs)
    level = FAMILY_LEVEL / len(keys)
    for k in keys:
        scaled = sample_first[k] * SCALE_ERROR
        if k[0] == "taps":
            scaled = np.round(scaled)
        assert stats.ks_2samp(exact[k], scaled).pvalue < level, k
