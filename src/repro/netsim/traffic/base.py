"""Base classes for application traffic models."""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.netsim.packets import Protocol


@dataclass
class FlowTemplate:
    """Everything an application decides about one flow.

    The generator fills in endpoints and timing; the template carries
    the application-level shape.
    """

    app: str
    size_bytes: float
    fwd_fraction: float
    protocol: int
    dst_port: int
    rate_cap_bps: Optional[float] = None
    payload_fn: Optional[Callable] = None
    to_internet: bool = True
    to_server: bool = False
    label: str = "benign"


@dataclass(frozen=True)
class FluidVariant:
    """One jointly-sampled (port, direction-split, cap) flow shape.

    The discrete models correlate these per flow (mail's submission
    port goes with its upload-heavy split); keeping them joint in the
    fluid profile preserves those correlations in the tap marginals.
    """

    weight: float
    dst_port: int
    fwd_fraction: float
    rate_cap_bps: Optional[float] = None


def _normal_cdf(x: float) -> float:
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


@dataclass(frozen=True)
class LognormalSize:
    """Lognormal flow size clipped to ``[floor, ceil]`` bytes.

    Called as ``(rng, n)`` it draws ``n`` iid sizes, exactly as
    :meth:`AppTrafficModel.lognormal_bytes` draws one.  ``mean`` and
    ``var`` are the clipped law's analytic moments.
    """

    median: float
    sigma: float
    floor: float = 64.0
    ceil: float = 5e9

    def __call__(self, rng: np.random.Generator, n: int) -> np.ndarray:
        values = rng.lognormal(mean=np.log(self.median), sigma=self.sigma,
                               size=int(n))
        return np.clip(values, self.floor, self.ceil)

    def raw_moment(self, k: int) -> float:
        """``E[X^k]``: mass below ``floor`` sits at ``floor``, mass above
        ``ceil`` at ``ceil``, and the body is the partial lognormal
        moment ``exp(k mu + k^2 sigma^2 / 2) [Phi(b - k sigma) -
        Phi(a - k sigma)]`` between the standardized log bounds."""
        mu, s = math.log(self.median), self.sigma
        a = (math.log(self.floor) - mu) / s
        b = (math.log(self.ceil) - mu) / s
        body = math.exp(k * mu + 0.5 * (k * s) ** 2) * (
            _normal_cdf(b - k * s) - _normal_cdf(a - k * s))
        return (self.floor ** k * _normal_cdf(a)
                + self.ceil ** k * _normal_cdf(-b) + body)

    @property
    def mean(self) -> float:
        return self.raw_moment(1)

    @property
    def var(self) -> float:
        return self.raw_moment(2) - self.mean ** 2


@dataclass(frozen=True)
class UniformIntSize:
    """Integer flow size uniform on ``[low, high)`` bytes."""

    low: int
    high: int

    def __call__(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.integers(self.low, self.high, size=int(n)).astype(
            np.float64)

    @property
    def mean(self) -> float:
        return (self.low + self.high - 1) / 2.0

    @property
    def var(self) -> float:
        return ((self.high - self.low) ** 2 - 1) / 12.0


@dataclass(frozen=True)
class FixedSize:
    """Every flow carries exactly ``size`` bytes."""

    size: float

    def __call__(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return np.full(int(n), float(self.size))

    @property
    def mean(self) -> float:
        return float(self.size)

    @property
    def var(self) -> float:
        return 0.0


#: a per-flow size law: callable as ``(rng, n) -> sizes`` with analytic
#: ``mean``/``var`` (the fluid engine's untapped-mass draw needs them).
SizeDistribution = Union[LognormalSize, UniformIntSize, FixedSize]


@dataclass
class FluidAppProfile:
    """Population-level description of one application class.

    The vectorized counterpart of :meth:`AppTrafficModel.sample`: the
    fluid engine draws whole arrays of flow sizes and variant indexes
    per tick instead of one template at a time.  ``p_internet`` is the
    probability a flow of this class crosses the border tap (derived
    from the discrete model's to_server/to_internet destination
    logic), which is all the tap-side synthesis needs.
    ``size_sampler`` is an explicit :data:`SizeDistribution`, so the
    engine can draw a class's untapped byte mass from its moments.
    """

    name: str
    protocol: int
    p_internet: float
    variants: Tuple[FluidVariant, ...]
    size_sampler: SizeDistribution

    def __post_init__(self) -> None:
        if not self.variants:
            raise ValueError(f"fluid profile {self.name!r} needs variants")
        raw = np.asarray([v.weight for v in self.variants], dtype=float)
        if np.any(raw < 0) or raw.sum() <= 0:
            raise ValueError("variant weights must be non-negative, sum > 0")
        self.variant_weights = raw / raw.sum()

    def sample_variants(self, rng: np.random.Generator,
                        n: int) -> np.ndarray:
        """Variant index per flow."""
        return rng.choice(len(self.variants), size=int(n),
                          p=self.variant_weights)

    def mean_rate_cap(self, default_bps: float) -> float:
        """Weight-averaged per-flow rate ceiling (fluid demand cap)."""
        return float(sum(
            w * (v.rate_cap_bps if v.rate_cap_bps is not None
                 else default_bps)
            for v, w in zip(self.variants, self.variant_weights)))


class AppTrafficModel(abc.ABC):
    """One application class: flow shape + payload synthesis."""

    #: Application name stamped on flows and packets.
    name: str = "generic"

    @abc.abstractmethod
    def sample(self, rng: np.random.Generator) -> FlowTemplate:
        """Draw one flow template."""

    def fluid_profile(self) -> FluidAppProfile:
        """Vectorized population-level profile (fluid engine input)."""
        raise NotImplementedError(
            f"traffic model {self.name!r} has no fluid profile")

    @staticmethod
    def lognormal_bytes(rng: np.random.Generator, median: float,
                        sigma: float, floor: float = 64.0,
                        ceil: float = 5e9) -> float:
        """Heavy-tailed flow size; ``median`` in bytes, ``sigma`` shape."""
        value = rng.lognormal(mean=np.log(median), sigma=sigma)
        return float(min(max(value, floor), ceil))


class TrafficMix:
    """A weighted mixture of application models.

    ``weights`` are flow-count shares, not byte shares.
    """

    def __init__(self, entries: Sequence[Tuple[AppTrafficModel, float]]):
        if not entries:
            raise ValueError("traffic mix cannot be empty")
        self.models: List[AppTrafficModel] = [m for m, _ in entries]
        raw = np.asarray([w for _, w in entries], dtype=float)
        if np.any(raw < 0) or raw.sum() <= 0:
            raise ValueError("traffic mix weights must be non-negative, sum > 0")
        self.weights = raw / raw.sum()

    def sample(self, rng: np.random.Generator) -> FlowTemplate:
        index = int(rng.choice(len(self.models), p=self.weights))
        return self.models[index].sample(rng)

    def model_names(self) -> List[str]:
        return [m.name for m in self.models]
