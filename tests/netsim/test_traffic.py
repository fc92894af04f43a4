"""Application models, mixes, and payload synthesis."""

import numpy as np
import pytest

from repro.netsim.flows import Flow
from repro.netsim.packets import FiveTuple, Protocol
from repro.netsim.traffic import (
    DEFAULT_MIX,
    DnsModel,
    TrafficMix,
    VideoStreamingModel,
    WebBrowsingModel,
    default_mix,
)
from repro.netsim.traffic.base import FixedSize, LognormalSize, \
    UniformIntSize
from repro.netsim.traffic.payloads import (
    decode_dns_qname,
    dns_amplification_payload,
    dns_query_payload,
    encode_dns_qname,
    http_payload,
    ssh_payload,
    tls_payload,
)


@pytest.fixture
def rng():
    return np.random.default_rng(5)


def _dummy_flow(flow_id=7):
    return Flow(flow_id=flow_id,
                key=FiveTuple("10.0.0.1", "9.9.9.9", 1234, 53, 17),
                src_node="a", dst_node="b", size_bytes=500)


def test_mix_weights_normalised():
    mix = default_mix()
    assert mix.weights.sum() == pytest.approx(1.0)
    assert len(mix.models) == len(mix.weights)


def test_mix_rejects_bad_weights():
    with pytest.raises(ValueError):
        TrafficMix([])
    with pytest.raises(ValueError):
        TrafficMix([(DnsModel(), -1.0)])


def test_mix_samples_follow_weights(rng):
    mix = TrafficMix([(DnsModel(), 0.9), (WebBrowsingModel(), 0.1)])
    names = [mix.sample(rng).app for _ in range(400)]
    assert names.count("dns") > names.count("web")


def test_templates_are_wellformed(rng):
    for model in DEFAULT_MIX.models:
        for _ in range(20):
            t = model.sample(rng)
            assert t.size_bytes >= 64
            assert 0.0 <= t.fwd_fraction <= 1.0
            assert t.protocol in (int(Protocol.TCP), int(Protocol.UDP))
            assert 0 < t.dst_port < 65536


def test_video_is_rate_capped(rng):
    t = VideoStreamingModel().sample(rng)
    assert t.rate_cap_bps is not None
    assert t.rate_cap_bps >= 3e6


def test_dns_qname_roundtrip():
    wire = encode_dns_qname("lms.campus.edu")
    assert decode_dns_qname(b"\x00" * 12 + wire) == "lms.campus.edu"


def test_dns_query_and_response_payloads():
    flow = _dummy_flow()
    query = dns_query_payload(flow, 0, "fwd")
    response = dns_query_payload(flow, 0, "rev")
    assert query[2] & 0x80 == 0          # QR bit clear
    assert response[2] & 0x80            # QR bit set
    assert decode_dns_qname(query)       # parseable name


def test_amplification_payload_is_any_query():
    flow = _dummy_flow()
    query = dns_amplification_payload(flow, 0, "fwd")
    # QTYPE sits right after the encoded qname.
    i = 12
    while query[i] != 0:
        i += query[i] + 1
    qtype = int.from_bytes(query[i + 1:i + 3], "big")
    assert qtype == 255
    response = dns_amplification_payload(flow, 0, "rev")
    assert len(response) > len(query)


def test_http_and_tls_and_ssh_payload_shapes():
    flow = _dummy_flow()
    assert http_payload(flow, 0, "fwd").startswith(b"GET ")
    assert http_payload(flow, 0, "rev").startswith(b"HTTP/1.1 200")
    assert tls_payload(flow, 0, "fwd").startswith(b"\x16\x03\x03")
    assert ssh_payload(flow, 0, "fwd").startswith(b"SSH-2.0")


def test_payloads_are_deterministic():
    a = dns_query_payload(_dummy_flow(9), 0, "fwd")
    b = dns_query_payload(_dummy_flow(9), 0, "fwd")
    assert a == b


# -- size distributions: analytic moments vs Monte Carlo ---------------------

MC_DRAWS = 10**6
#: |Monte Carlo - analytic| must stay within this many standard errors;
#: each standard error comes from the law's analytic moments.
MOMENT_Z = 5.0
#: clip-bound laws: 33% of the mass sits on the 64 B floor; 5% on the
#: 5e9 B ceiling.
FLOOR_BOUND = LognormalSize(median=100.0, sigma=1.0)
CEIL_BOUND = LognormalSize(median=1e9, sigma=1.0)


def _raw_moments(dist):
    """``E[X^k]`` for k = 1..4."""
    if isinstance(dist, LognormalSize):
        return [dist.raw_moment(k) for k in range(1, 5)]
    if isinstance(dist, UniformIntSize):
        support = np.arange(dist.low, dist.high, dtype=np.float64)
        return [float(np.mean(support ** k)) for k in range(1, 5)]
    return [float(dist.size) ** k for k in range(1, 5)]


def _moment_cases():
    cases = [(m.name, m.fluid_profile().size_sampler)
             for m in default_mix().models]
    return cases + [("floor-bound", FLOOR_BOUND),
                    ("ceil-bound", CEIL_BOUND)]


@pytest.mark.parametrize("name,dist", _moment_cases())
def test_size_moments_match_monte_carlo(name, dist):
    m1, m2, m3, m4 = _raw_moments(dist)
    assert dist.mean == pytest.approx(m1, rel=1e-12)
    assert dist.var == pytest.approx(m2 - m1 * m1, rel=1e-9, abs=1e-9)
    draws = dist(np.random.default_rng(2024), MC_DRAWS)
    assert len(draws) == MC_DRAWS
    if dist.var == 0.0:
        assert np.all(draws == dist.mean)
        return
    central4 = m4 - 4 * m1 * m3 + 6 * m1 * m1 * m2 - 3 * m1 ** 4
    se_mean = np.sqrt(dist.var / MC_DRAWS)
    se_var = np.sqrt((central4 - dist.var ** 2) / MC_DRAWS)
    assert abs(draws.mean() - dist.mean) <= MOMENT_Z * se_mean, name
    assert abs(draws.var() - dist.var) <= MOMENT_Z * se_var, name


def test_moments_account_for_the_clip():
    for dist, bound in ((FLOOR_BOUND, FLOOR_BOUND.floor),
                        (CEIL_BOUND, CEIL_BOUND.ceil)):
        draws = dist(np.random.default_rng(7), MC_DRAWS)
        assert np.mean(draws == bound) > 0.04
        unclipped_mean = dist.median * np.exp(0.5 * dist.sigma ** 2)
        assert abs(unclipped_mean - dist.mean) > 0.01 * dist.mean


def test_uniform_and_fixed_sizes_keep_their_draws():
    rng_a, rng_b = np.random.default_rng(3), np.random.default_rng(3)
    assert np.array_equal(UniformIntSize(120, 600)(rng_a, 50),
                          rng_b.integers(120, 600, size=50).astype(float))
    assert np.array_equal(FixedSize(180.0)(rng_a, 4), np.full(4, 180.0))
