"""Concrete application traffic models and the default campus mix."""

from __future__ import annotations

import numpy as np

from repro.netsim.packets import Protocol
from repro.netsim.traffic import payloads
from repro.netsim.traffic.base import (AppTrafficModel, FixedSize,
                                       FlowTemplate, FluidAppProfile,
                                       FluidVariant, LognormalSize,
                                       TrafficMix, UniformIntSize)

MBPS = 1_000_000


class WebBrowsingModel(AppTrafficModel):
    """Short HTTPS page loads; small upstream request, larger download."""

    name = "web"

    def sample(self, rng: np.random.Generator) -> FlowTemplate:
        size = self.lognormal_bytes(rng, median=60_000, sigma=1.6)
        port = 443 if rng.random() < 0.85 else 80
        payload = payloads.tls_payload if port == 443 else payloads.http_payload
        return FlowTemplate(
            app=self.name,
            size_bytes=size,
            fwd_fraction=0.08,
            protocol=int(Protocol.TCP),
            dst_port=port,
            payload_fn=payload,
        )

    def fluid_profile(self) -> FluidAppProfile:
        return FluidAppProfile(
            name=self.name, protocol=int(Protocol.TCP), p_internet=1.0,
            variants=(FluidVariant(0.85, 443, 0.08),
                      FluidVariant(0.15, 80, 0.08)),
            size_sampler=LognormalSize(median=60_000, sigma=1.6),
        )


class VideoStreamingModel(AppTrafficModel):
    """Long-lived, rate-capped segments (adaptive streaming)."""

    name = "video"

    def sample(self, rng: np.random.Generator) -> FlowTemplate:
        size = self.lognormal_bytes(rng, median=8_000_000, sigma=1.0)
        cap = float(rng.choice([3, 5, 8, 12])) * MBPS
        return FlowTemplate(
            app=self.name,
            size_bytes=size,
            fwd_fraction=0.02,
            protocol=int(Protocol.TCP),
            dst_port=443,
            rate_cap_bps=cap,
            payload_fn=payloads.tls_payload,
        )

    def fluid_profile(self) -> FluidAppProfile:
        return FluidAppProfile(
            name=self.name, protocol=int(Protocol.TCP), p_internet=1.0,
            variants=tuple(FluidVariant(0.25, 443, 0.02, float(m) * MBPS)
                           for m in (3, 5, 8, 12)),
            size_sampler=LognormalSize(median=8_000_000, sigma=1.0),
        )


class DnsModel(AppTrafficModel):
    """Tiny UDP query/response pairs; dominates flow counts."""

    name = "dns"

    def sample(self, rng: np.random.Generator) -> FlowTemplate:
        size = float(rng.integers(120, 600))
        return FlowTemplate(
            app=self.name,
            size_bytes=size,
            fwd_fraction=0.25,
            protocol=int(Protocol.UDP),
            dst_port=53,
            payload_fn=payloads.dns_query_payload,
            to_internet=rng.random() < 0.3,
            to_server=True,
        )

    def fluid_profile(self) -> FluidAppProfile:
        # Border-crossing probability from the discrete destination
        # logic: to_internet (0.3) and then the 50/50 server-vs-internet
        # coin in CampusNetwork._choose_destination.
        return FluidAppProfile(
            name=self.name, protocol=int(Protocol.UDP), p_internet=0.15,
            variants=(FluidVariant(1.0, 53, 0.25),),
            size_sampler=UniformIntSize(120, 600),
        )


class SshModel(AppTrafficModel):
    """Interactive sessions; roughly symmetric, small."""

    name = "ssh"

    def sample(self, rng: np.random.Generator) -> FlowTemplate:
        size = self.lognormal_bytes(rng, median=25_000, sigma=1.2)
        return FlowTemplate(
            app=self.name,
            size_bytes=size,
            fwd_fraction=0.45,
            protocol=int(Protocol.TCP),
            dst_port=22,
            payload_fn=payloads.ssh_payload,
            to_internet=rng.random() < 0.4,
            to_server=True,
        )

    def fluid_profile(self) -> FluidAppProfile:
        return FluidAppProfile(
            name=self.name, protocol=int(Protocol.TCP), p_internet=0.2,
            variants=(FluidVariant(1.0, 22, 0.45),),
            size_sampler=LognormalSize(median=25_000, sigma=1.2),
        )


class MailModel(AppTrafficModel):
    """SMTP submission / IMAP sync to the campus mail server."""

    name = "mail"

    def sample(self, rng: np.random.Generator) -> FlowTemplate:
        size = self.lognormal_bytes(rng, median=90_000, sigma=1.4)
        upload = rng.random() < 0.4
        return FlowTemplate(
            app=self.name,
            size_bytes=size,
            fwd_fraction=0.8 if upload else 0.1,
            protocol=int(Protocol.TCP),
            dst_port=587 if upload else 993,
            payload_fn=payloads.smtp_payload,
            to_internet=rng.random() < 0.5,
            to_server=True,
        )

    def fluid_profile(self) -> FluidAppProfile:
        # Submission (587, upload-heavy) vs IMAP sync (993): the port
        # and the direction split stay correlated, as in sample().
        return FluidAppProfile(
            name=self.name, protocol=int(Protocol.TCP), p_internet=0.25,
            variants=(FluidVariant(0.4, 587, 0.8),
                      FluidVariant(0.6, 993, 0.1)),
            size_sampler=LognormalSize(median=90_000, sigma=1.4),
        )


class NtpModel(AppTrafficModel):
    """Clock sync; tiny symmetric UDP."""

    name = "ntp"

    def sample(self, rng: np.random.Generator) -> FlowTemplate:
        return FlowTemplate(
            app=self.name,
            size_bytes=180.0,
            fwd_fraction=0.5,
            protocol=int(Protocol.UDP),
            dst_port=123,
            payload_fn=payloads.ntp_payload,
        )

    def fluid_profile(self) -> FluidAppProfile:
        return FluidAppProfile(
            name=self.name, protocol=int(Protocol.UDP), p_internet=1.0,
            variants=(FluidVariant(1.0, 123, 0.5),),
            size_sampler=FixedSize(180.0),
        )


class BulkTransferModel(AppTrafficModel):
    """Research data / backup uploads; large and upstream-heavy."""

    name = "bulk"

    def sample(self, rng: np.random.Generator) -> FlowTemplate:
        size = self.lognormal_bytes(rng, median=150_000_000, sigma=1.2,
                                    ceil=3e9)
        return FlowTemplate(
            app=self.name,
            size_bytes=size,
            fwd_fraction=0.95,
            protocol=int(Protocol.TCP),
            dst_port=443,
            payload_fn=payloads.opaque_payload,
        )

    def fluid_profile(self) -> FluidAppProfile:
        return FluidAppProfile(
            name=self.name, protocol=int(Protocol.TCP), p_internet=1.0,
            variants=(FluidVariant(1.0, 443, 0.95),),
            size_sampler=LognormalSize(median=150_000_000, sigma=1.2,
                                       ceil=3e9),
        )


class SoftwareUpdateModel(AppTrafficModel):
    """OS/package updates; large downloads from CDNs."""

    name = "update"

    def sample(self, rng: np.random.Generator) -> FlowTemplate:
        size = self.lognormal_bytes(rng, median=40_000_000, sigma=1.3,
                                    ceil=2e9)
        return FlowTemplate(
            app=self.name,
            size_bytes=size,
            fwd_fraction=0.01,
            protocol=int(Protocol.TCP),
            dst_port=443,
            payload_fn=payloads.opaque_payload,
        )

    def fluid_profile(self) -> FluidAppProfile:
        return FluidAppProfile(
            name=self.name, protocol=int(Protocol.TCP), p_internet=1.0,
            variants=(FluidVariant(1.0, 443, 0.01),),
            size_sampler=LognormalSize(median=40_000_000, sigma=1.3,
                                       ceil=2e9),
        )


def default_mix() -> TrafficMix:
    """Flow-count mix for a generic campus (DNS-heavy, web-dominant)."""
    return TrafficMix([
        (DnsModel(), 0.38),
        (WebBrowsingModel(), 0.34),
        (VideoStreamingModel(), 0.08),
        (SshModel(), 0.06),
        (MailModel(), 0.07),
        (NtpModel(), 0.04),
        (SoftwareUpdateModel(), 0.02),
        (BulkTransferModel(), 0.01),
    ])


DEFAULT_MIX = default_mix()
