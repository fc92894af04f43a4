"""Exact per-flow class draw: the reference for the fluid engine's
sample-first :func:`repro.netsim.fluid.draw_classes`.

Same signature and return shape, so a test can swap it in.  It draws
every campus flow arrival of the tick, a size for each, and two
uniforms per flow (border crossing, tap sampling), then sums border
bytes per class — the cost grows with campus size, which is what the
production draw avoids, but nothing here is approximated.
"""

import numpy as np


def exact_draw_classes(rng, rate, profiles, p_internet, tap_sample):
    n_cohorts, n_apps = rate.shape
    arrivals = rng.poisson(rate)
    border_bytes = np.zeros((n_cohorts, n_apps))
    border_flows = np.zeros((n_cohorts, n_apps), dtype=np.int64)
    flow_parts = []
    for a, profile in enumerate(profiles):
        per_cohort = arrivals[:, a]
        n_total = int(per_cohort.sum())
        if n_total == 0:
            continue
        sizes = profile.size_sampler(rng, n_total)
        is_border = rng.random(n_total) < p_internet[a]
        sampled = is_border if tap_sample >= 1.0 else (
            is_border & (rng.random(n_total) < tap_sample))
        cohort_of = np.repeat(np.arange(n_cohorts), per_cohort)
        border_bytes[:, a] = np.bincount(
            cohort_of, weights=np.where(is_border, sizes, 0.0),
            minlength=n_cohorts)
        border_flows[:, a] = np.bincount(cohort_of[is_border],
                                         minlength=n_cohorts)
        if sampled.any():
            flow_parts.append(
                (a, sizes[sampled], cohort_of[sampled] * n_apps + a))
    return border_bytes, border_flows, flow_parts
