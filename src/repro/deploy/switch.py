"""Emulated programmable border switch.

The switch closes the paper's fast control loop (Fig. 2) inside the
simulated campus:

* **sense** — every border packet updates count-min/Bloom summaries and
  per-(window, external endpoint) counters, the same aggregation the
  offline featurizer uses (so trained models transfer);
* **infer** — at each window boundary the compiled match-action table
  classifies every tracked endpoint;
* **react** — verdicts whose table confidence clears the configured
  threshold (the §2 "at least 90%" knob) install a mitigation — drop or
  rate-limit — on the fluid network for a bounded duration.

Reaction timing follows the placement model: a data-plane deployment
reacts within the window; a control-plane/cloud deployment adds its
loop latency before the mitigation lands.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.capture.metadata import MetadataExtractor
from repro.chaos.faults import FaultKind, MitigationError
from repro.chaos.resilience import CallableClock, CircuitBreaker
from repro.deploy.compiler import CompileResult
from repro.deploy.placement import PLACEMENTS
from repro.deploy.sketches import BloomFilter, CountMinSketch
from repro.learning.features import FEATURE_NAMES, WELL_KNOWN, \
    FeatureConfig, WindowExample, SourceWindowFeaturizer
from repro.netsim.packets import PacketRecord, Protocol

_UDP = int(Protocol.UDP)


@dataclass
class SwitchConfig:
    """Runtime configuration for the deployed program."""

    window_s: float = 5.0
    grace_s: float = 2.0
    min_packets: int = 4
    confidence_threshold: float = 0.9
    placement: str = "data_plane"
    mitigation_duration_s: float = 30.0
    max_tracked_keys: int = 4096
    #: class name -> ("drop", None) or ("rate_limit", cap_bps)
    bindings: Dict[str, Tuple[str, Optional[float]]] = field(
        default_factory=lambda: {"*": ("drop", None)}
    )
    benign_class: str = "benign"
    shadow: bool = False           # log verdicts but never act


@dataclass
class Detection:
    """One non-benign verdict."""

    window_start: float
    endpoint: str
    class_name: str
    confidence: float
    decided_at: float              # when the verdict was computed
    effective_at: float            # when the mitigation took hold
    acted: bool
    feature_vector: List[float] = field(default_factory=list)


class EmulatedSwitch:
    """Executes a compiled program against live border traffic."""

    #: breaker state -> gauge value (0 healthy .. 1 open)
    _BREAKER_GAUGE = {"closed": 0.0, "half_open": 0.5, "open": 1.0}

    def __init__(self, network, compile_result: CompileResult,
                 config: Optional[SwitchConfig] = None,
                 verify: bool = True, fault_injector=None,
                 react_breaker: Optional[CircuitBreaker] = None, bus=None,
                 obs=None):
        # Load-path gate: a structurally or semantically broken program
        # never attaches to the network (mirrors a real switch driver
        # rejecting an invalid binary at load time).  Imported lazily:
        # repro.verify depends on repro.deploy.ir, so a module-level
        # import here would close a package-init cycle.
        if verify:
            from repro.verify.diagnostics import ProgramVerificationError
            from repro.verify.program import verify_program

            report = verify_program(compile_result.program)
            if not report.ok:
                raise ProgramVerificationError(report)
        self.network = network
        self.result = compile_result
        # The classify table, compiled once: quantized vector -> (action,
        # params).  A quantized vector holds one value per feature the
        # quantizer scales, so, as in ``dict(zip(fields, values))``,
        # feature fields past that read 0.
        n_values = min(len(FEATURE_NAMES),
                       len(compile_result.quantizer.scales))
        self._classify = compile_result.classify_table.compile_lookup(
            compile_result.program.feature_fields[:n_values])
        self.config = config or SwitchConfig()
        if self.config.placement not in PLACEMENTS:
            known = ", ".join(sorted(PLACEMENTS))
            raise ValueError(
                f"unknown placement {self.config.placement!r}; one of {known}"
            )
        self._metadata = MetadataExtractor(network.topology)
        self._featurizer = SourceWindowFeaturizer(FeatureConfig(
            window_s=self.config.window_s,
            min_packets=self.config.min_packets,
        ))
        self._buckets: Dict[float, Dict[str, WindowExample]] = {}
        #: the last tick's time: every window with ``start + window_s +
        #: grace_s`` at or before it was evaluated and dropped, so a
        #: packet for one of those windows is late and makes no bucket
        self._watermark = -math.inf
        self.detections: List[Detection] = []
        self.packets_processed = 0
        #: packets sensed (sketched) but left out of features because
        #: their window's key table was full (``max_tracked_keys``)
        self.untracked_packets = 0
        #: packets sensed (sketched) but left out of features because
        #: their window had already been evaluated; processed = tracked
        #: + untracked + late
        self.late_packets = 0
        self.mitigated_endpoints: Dict[str, float] = {}
        #: permanent record (endpoint -> first effective time), survives
        #: mitigation expiry; consumed by testbed collateral accounting.
        self.mitigation_log: Dict[str, float] = {}
        # Data-plane sensing structures (realism + SRAM accounting).
        self.byte_sketch = CountMinSketch(width=2048, depth=3)
        self.seen_filter = BloomFilter(capacity=50_000, fp_rate=0.01)
        #: endpoint -> (count-min slots, Bloom slots); bounded by the
        #: Bloom filter's capacity and cleared wholesale when full
        self._slot_memo: Dict[str, Tuple[List[int], List[int]]] = {}
        # Chaos/resilience wiring: injected data-plane faults plus a
        # circuit breaker around the react step.  When the breaker is
        # open the switch degrades to shadow behaviour (verdicts logged,
        # no mitigations installed) instead of hammering a failing
        # install path.
        self.fault_injector = fault_injector
        self.bus = bus
        if react_breaker is None and fault_injector is not None:
            react_breaker = CircuitBreaker(
                failure_threshold=3,
                recovery_s=2.0 * self.config.window_s,
                clock=CallableClock(lambda: self.network.now),
                bus=bus, name="switch.react")
        self.react_breaker = react_breaker
        self.table_misses = 0
        self.register_corruptions = 0
        self.react_failures = 0
        self.react_shed = 0
        self.degraded_shadow = False
        # Fast-loop observability: metric objects cached once so the
        # sense path pays one None-check per batch.
        self.obs = obs
        if obs is not None:
            metrics = obs.metrics
            self._m_packets = metrics.counter(
                "repro_switch_packets_sensed_total")
            self._m_untracked = metrics.counter(
                "repro_switch_untracked_packets_total")
            self._m_late = metrics.counter(
                "repro_switch_late_packets_total")
            self._m_lookups = metrics.counter(
                "repro_switch_table_lookups_total")
            self._m_misses = metrics.counter(
                "repro_switch_table_miss_total")
            self._m_detections = metrics.counter(
                "repro_switch_detections_total")
            self._m_react = {
                outcome: metrics.counter("repro_switch_reactions_total",
                                         outcome=outcome)
                for outcome in ("acted", "shed", "failed")
            }
            self._g_breaker = metrics.gauge("repro_switch_breaker_state")

        network.add_packet_observer(self._deliver)
        #: the window-tick grid: ticks fall at start + k * window_s,
        #: accumulated by repeated addition exactly as a chain of
        #: ``schedule(window_s)`` calls places them
        self._next_tick = network.now + self.config.window_s
        self._tick_armed = True
        network.simulator.schedule(self.config.window_s, self._tick,
                                   name="switch-tick")

    # -- sense ---------------------------------------------------------------

    def _deliver(self, packets: List[PacketRecord]) -> None:
        """A delivered batch: sense it, and re-arm a paused tick chain."""
        self._on_packets(packets)
        if packets and not self._tick_armed:
            self._arm_tick()

    def _on_packets(self, packets: List[PacketRecord]) -> None:
        """Sense one delivered batch.

        One fused loop per batch.  Per packet: endpoint and window
        bucketing, the endpoint's byte total and the featurizer's
        counters, updated inline as ``SourceWindowFeaturizer._accumulate``
        does; consecutive packets of one window index share one bucket
        lookup.  Per batch: one count-min and one Bloom update per
        distinct endpoint (count-min adds commute and Bloom bits are
        idempotent, so the state equals per-packet updates).

        With payload features on, a DNS packet's response and ANY
        verdicts come from its payload tags alone, since the counters
        read nothing else of ``extract``'s tags.  The port heuristic
        never fires then (``extract``'s tags are never empty), so a DNS
        packet with an empty payload counts no response.
        """
        if self.obs is not None:
            self._m_packets.inc(len(packets))
        if self.fault_injector is not None and packets and \
                self.fault_injector.should_fire(
                    FaultKind.SWITCH_REGISTER_CORRUPT):
            # SRAM bit-rot: one count-min register jumps by the fault
            # magnitude; estimates for whatever hashes there inflate.
            delta = int(self.fault_injector.magnitude(
                FaultKind.SWITCH_REGISTER_CORRUPT)) or 1
            row, col = self.fault_injector.corruption_site(
                (self.byte_sketch.depth, self.byte_sketch.width))
            self.byte_sketch._table[row, col] += delta
            self.register_corruptions += 1
        window_s = self.config.window_s
        grace_s = self.config.grace_s
        watermark = self._watermark
        max_keys = self.config.max_tracked_keys
        read_tags = self._featurizer.config.use_payload_features
        payload_tags = self._metadata.payload_tags
        buckets = self._buckets
        floor = math.floor
        endpoint_bytes: Dict[str, int] = {}
        untracked = 0
        late = 0
        # the bucket of the last packet's window index, reused until the
        # index changes (no window is dropped inside a batch); None for
        # a window the last tick closed
        last_index = None
        window_start = 0.0
        bucket: Optional[Dict[str, WindowExample]] = {}
        for packet in packets:
            size = packet.size
            inbound = packet.direction == "in"
            endpoint = packet.src_ip if inbound else packet.dst_ip
            endpoint_bytes[endpoint] = endpoint_bytes.get(endpoint, 0) + size
            index = floor(packet.timestamp / window_s)
            if index != last_index:
                last_index = index
                window_start = index * window_s
                bucket = buckets.get(window_start)
                if bucket is None and \
                        window_start + window_s + grace_s > watermark:
                    bucket = buckets[window_start] = {}
            if bucket is None:
                late += 1   # its window was already evaluated
                continue
            example = bucket.get(endpoint)
            if example is None:
                if len(bucket) >= max_keys:
                    untracked += 1  # key table full: untracked this window
                    continue
                example = bucket[endpoint] = WindowExample(
                    window_start=window_start, endpoint=endpoint)
            # SourceWindowFeaturizer._accumulate, inline
            example.pkts += 1
            example.bytes += size
            example.ttl_sum += packet.ttl
            if packet.protocol == _UDP:
                example.udp_pkts += 1
            src_port = packet.src_port
            if src_port == 53 or packet.dst_port == 53:
                example.dns_pkts += 1
                if read_tags:
                    tags = payload_tags(packet)
                    if tags.get("dns_qr") == "response":
                        example.dns_responses += 1
                    if tags.get("dns_qtype") == "ANY":
                        example.dns_any += 1
                elif inbound and src_port == 53:
                    example.dns_responses += 1
            if inbound:
                example.bytes_in += size
                dst_port = packet.dst_port
                example.dsts.add(packet.dst_ip)
                example.dports.add(dst_port)
                if dst_port in WELL_KNOWN:
                    example.wellknown_dport += 1
                if src_port == 53:
                    example.port53_src += 1
            else:
                example.bytes_out += size
            flags = packet.flags
            if flags & 0x02 and not flags & 0x10:   # PacketRecord.is_syn
                example.syns += 1
        self.packets_processed += len(packets)
        self._sketch_endpoints(endpoint_bytes, len(packets))
        if untracked:
            self.untracked_packets += untracked
            if self.obs is not None:
                self._m_untracked.inc(untracked)
        if late:
            self.late_packets += late
            if self.obs is not None:
                self._m_late.inc(late)

    def _sketch_endpoints(self, endpoint_bytes: Dict[str, int],
                          n_packets: int) -> None:
        """Add each endpoint's byte total to the count-min table and set
        its Bloom bits, with scalar updates at memoized slots.

        Equal to ``add_batch`` over the batch's per-packet endpoints
        and sizes; a replay batch holds a handful of endpoints, where
        numpy's fixed cost per call outweighs the updates themselves.
        """
        sketch = self.byte_sketch
        bloom = self.seen_filter
        memo = self._slot_memo
        cells = sketch._table.reshape(-1)
        bits = bloom._bits
        for endpoint, size in endpoint_bytes.items():
            slots = memo.get(endpoint)
            if slots is None:
                if len(memo) >= bloom.capacity:
                    memo.clear()
                slots = memo[endpoint] = (sketch.slots(endpoint),
                                          bloom.slots(endpoint))
            cm_slots, bloom_slots = slots
            for slot in cm_slots:
                cells[slot] += size
            for slot in bloom_slots:
                bits[slot] = True
        sketch.total += sum(endpoint_bytes.values())
        bloom.count += n_packets

    # -- infer + react ---------------------------------------------------------

    def _arm_tick(self) -> None:
        """Schedule the first grid tick after now.

        A tick with no unevaluated window does nothing, so the chain
        pauses while there are none (a replay can leave hours between
        packets) and the next delivered batch re-arms it on the same
        grid.  A tick the pause skipped would have run, and found
        nothing, before that batch arrived; the watermark stays at the
        last tick that ran, so only a batch whose packets trail its
        delivery by more than ``window_s + grace_s`` could tell the
        difference, and its windows are evaluated, not refused as
        late.  Re-arming follows at least
        one tick, so on a clock started at or after zero
        ``now >= window_s >= next - now`` and the subtraction is exact:
        the event lands on the grid time itself.
        """
        now = self.network.now
        while self._next_tick <= now:
            self._next_tick += self.config.window_s
        self._tick_armed = True
        self.network.simulator.schedule(self._next_tick - now, self._tick,
                                        name="switch-tick")

    def _tick(self) -> None:
        now = self.network.now
        window_s = self.config.window_s
        grace_s = self.config.grace_s
        ready = [
            start for start in self._buckets
            if start + window_s + grace_s <= now
        ]
        for window_start in sorted(ready):
            self._evaluate_window(window_start)
            del self._buckets[window_start]
        self._watermark = now
        self._next_tick = now + window_s
        if self._buckets:
            self.network.simulator.schedule(window_s, self._tick,
                                            name="switch-tick")
        else:
            self._tick_armed = False

    def _evaluate_window(self, window_start: float) -> None:
        if self.obs is None:
            return self._infer_window(window_start)
        with self.obs.span("switch.window", window_start=window_start,
                           endpoints=len(self._buckets[window_start])):
            return self._infer_window(window_start)

    def _infer_window(self, window_start: float) -> None:
        config = self.config
        classify = self._classify
        quantize = self.result.quantizer.quantize
        class_names = self.result.program.class_names
        for endpoint, example in self._buckets[window_start].items():
            if example.pkts < config.min_packets:
                continue
            if self.fault_injector is not None and \
                    self.fault_injector.should_fire(
                        FaultKind.SWITCH_TABLE_MISS, endpoint=endpoint):
                # injected lookup miss: this endpoint gets no verdict
                # this window (sense/infer degraded, loop continues)
                self.table_misses += 1
                if self.obs is not None:
                    self._m_misses.inc()
                continue
            vector = example.vector(config.window_s)
            action, params = classify(quantize(vector))
            if self.obs is not None:
                self._m_lookups.inc()
            class_id = int(params["class_id"])
            class_name = (class_names[class_id]
                          if class_id < len(class_names) else str(class_id))
            confidence = float(params.get("confidence", 1.0))
            if class_name == config.benign_class:
                continue
            acted = False
            effective_at = self.network.now
            if confidence >= config.confidence_threshold and not config.shadow:
                acted, effective_at = self._guarded_react(endpoint,
                                                          class_name)
            if self.obs is not None:
                self._m_detections.inc()
            self.detections.append(Detection(
                window_start=window_start,
                endpoint=endpoint,
                class_name=class_name,
                confidence=confidence,
                decided_at=self.network.now,
                effective_at=effective_at,
                acted=acted,
                feature_vector=vector,
            ))

    def _guarded_react(self, endpoint: str, class_name: str) \
            -> Tuple[bool, float]:
        """The react step behind its circuit breaker.

        Returns ``(acted, effective_at)``.  An open breaker sheds the
        reaction (graceful degradation to shadow behaviour); an injected
        ``switch.react_fail`` counts a breaker failure and leaves the
        endpoint unmitigated this window.
        """
        if self.obs is None:
            return self._react_once(endpoint, class_name)
        with self.obs.span("switch.react", endpoint=endpoint,
                           verdict=class_name) as span:
            acted, effective_at = self._react_once(endpoint, class_name)
            span.set(acted=acted)
        if acted:
            self._m_react["acted"].inc()
        breaker = self.react_breaker
        if breaker is not None:
            self._g_breaker.set(
                self._BREAKER_GAUGE.get(breaker.state, 1.0))
        return acted, effective_at

    def _react_once(self, endpoint: str, class_name: str) \
            -> Tuple[bool, float]:
        breaker = self.react_breaker
        if breaker is not None and not breaker.allow():
            self.react_shed += 1
            self.degraded_shadow = True
            if self.obs is not None:
                self._m_react["shed"].inc()
            return False, self.network.now
        already = endpoint in self.mitigated_endpoints
        try:
            if self.fault_injector is not None and \
                    self.fault_injector.should_fire(
                        FaultKind.SWITCH_REACT_FAIL, endpoint=endpoint):
                raise MitigationError(
                    f"injected mitigation-install failure for {endpoint}")
            effective_at = self._apply_mitigation(endpoint, class_name)
        except MitigationError:
            self.react_failures += 1
            if breaker is not None:
                breaker.record_failure()
            if self.obs is not None:
                self._m_react["failed"].inc()
            return False, self.network.now
        if breaker is not None:
            breaker.record_success()
        return not already, effective_at

    def _binding_for(self, class_name: str) -> Tuple[str, Optional[float]]:
        bindings = self.config.bindings
        if class_name in bindings:
            return bindings[class_name]
        return bindings.get("*", ("drop", None))

    def _apply_mitigation(self, endpoint: str, class_name: str) -> float:
        """Install the mitigation after the placement's loop latency."""
        if endpoint in self.mitigated_endpoints:
            return self.mitigated_endpoints[endpoint]
        placement = PLACEMENTS[self.config.placement]
        delay = placement.infer_latency_s + placement.react_latency_s
        effective_at = self.network.now + delay
        self.mitigated_endpoints[endpoint] = effective_at
        self.mitigation_log.setdefault(endpoint, effective_at)
        kind, cap = self._binding_for(class_name)

        def install() -> None:
            predicate = lambda flow: endpoint in (
                flow.key.src_ip, flow.key.dst_ip
            )
            remove = self.network.flows.install_policer(
                predicate, None if kind == "drop" else cap
            )

            def expire() -> None:
                remove()
                self.mitigated_endpoints.pop(endpoint, None)

            self.network.simulator.schedule(
                self.config.mitigation_duration_s, expire,
                name="mitigation-expire",
            )

        self.network.simulator.schedule(delay, install, name="mitigate")
        return effective_at

    # -- reporting ---------------------------------------------------------------

    def resilience_summary(self) -> Dict[str, int]:
        """Injected-fault and degradation counters for audit reports."""
        breaker = self.react_breaker
        return {
            "table_misses": self.table_misses,
            "register_corruptions": self.register_corruptions,
            "react_failures": self.react_failures,
            "react_shed": self.react_shed,
            "breaker_opened": breaker.times_opened if breaker else 0,
            "degraded_shadow": int(self.degraded_shadow),
        }

    def detection_summary(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for detection in self.detections:
            counts[detection.class_name] = counts.get(
                detection.class_name, 0) + 1
        return counts
