"""Federation configuration and per-site stream derivation.

Determinism contract: everything random at site *i* of a federation
seeded ``s`` — the campus build, the traffic day, the ingest Crypto-PAn
key, the boundary Crypto-PAn key, and the site's DP noise stream — is
derived from the ``(s, i)`` pair and from nothing else.  Two
consequences the test suite pins:

* an N-site run is bit-identical under a fixed seed **regardless of
  site evaluation order** (the coordinator may fan out over threads);
* no two sites ever share a pseudonym space or a noise stream, because
  every substream mixes the site id into its derivation.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

#: substream indexes per (seed, site) pair — append-only, part of the
#: replay format exactly like the chaos injector's kind streams.
STREAM_PLATFORM = 0   # the site's CampusPlatform seed
STREAM_DP = 1         # the site's DP accountant noise stream
STREAM_ROADTEST = 2   # per-site road-test day seeds (+ phase index)
STREAM_FAULTS = 100   # per-site chaos plan seed (high: road-test
#                       phases consume 2, 3, 4, ... above)


def site_stream_seed(seed: int, site_id: int, stream: int) -> int:
    """One 63-bit seed from the ``seed x site_id`` substream family."""
    sequence = np.random.SeedSequence([seed, site_id, stream])
    return int(sequence.generate_state(1, dtype=np.uint64)[0] >> 1)


def site_key(seed: int, site_id: int, purpose: str) -> bytes:
    """A 32-byte per-site Crypto-PAn key for ``purpose``.

    ``purpose`` separates the site's *ingest* key (what the store's
    privacy transform uses) from its *boundary* key (what the gateway
    re-keys outbound addresses under), so even within one site the two
    pseudonym spaces are unlinkable.
    """
    material = struct.pack("!qq", seed, site_id) + purpose.encode()
    return hashlib.sha256(b"repro-federation-key:" + material).digest()


@dataclass(frozen=True)
class SiteSpec:
    """Identity and locally-derived parameters of one federated site."""

    site_id: int
    name: str
    platform_seed: int
    dp_seed: int
    ingest_key: bytes
    boundary_key: bytes

    @classmethod
    def derive(cls, seed: int, site_id: int,
               name: Optional[str] = None) -> "SiteSpec":
        return cls(
            site_id=site_id,
            name=name or f"campus-{site_id}",
            platform_seed=site_stream_seed(seed, site_id, STREAM_PLATFORM),
            dp_seed=site_stream_seed(seed, site_id, STREAM_DP),
            ingest_key=site_key(seed, site_id, "ingest"),
            boundary_key=site_key(seed, site_id, "boundary"),
        )

    def roadtest_seed(self, phase_index: int, seed: int) -> int:
        return site_stream_seed(seed, self.site_id,
                                STREAM_ROADTEST + phase_index)


@dataclass
class FederationConfig:
    """Shared knobs for one federation of N campuses."""

    n_sites: int = 3
    seed: int = 0
    #: per-site DP budget (each site runs its own accountant).
    epsilon_total: float = 1.0
    #: confidence level the coordinator's merged bounds are stated at.
    confidence: float = 0.95
    #: released aggregates must be k-anonymous at this k.
    k_anon: int = 5
    #: minimum fraction of sites that must answer a federated query.
    quorum_fraction: float = 0.5
    #: sites whose (simulated) answer latency exceeds this are treated
    #: as unavailable for the query being merged.
    timeout_s: float = 2.0
    #: simulated per-call gateway round-trip (0 = co-located).
    rtt_s: float = 0.0
    campus_profile: str = "tiny"
    duration_s: float = 180.0
    window_s: float = 5.0

    def __post_init__(self):
        if self.n_sites < 1:
            raise ValueError("a federation needs at least one site")
        if not 0.0 < self.quorum_fraction <= 1.0:
            raise ValueError("quorum_fraction must be in (0, 1]")
        if not 0.0 < self.confidence < 1.0:
            raise ValueError("confidence must be in (0, 1)")

    @property
    def quorum(self) -> int:
        """Minimum number of answering sites for a valid merge."""
        return max(1, int(np.ceil(self.n_sites * self.quorum_fraction)))

    def site_specs(self, names: Optional[List[str]] = None
                   ) -> Tuple[SiteSpec, ...]:
        names = names or [None] * self.n_sites
        return tuple(SiteSpec.derive(self.seed, i, name=names[i])
                     for i in range(self.n_sites))
