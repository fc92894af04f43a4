"""The campus platform facade (Figure 1).

One :class:`CampusPlatform` builds the instrumented campus: network +
border tap + capture engine + privacy transforms + metadata extraction
+ sensors + data store.  Researchers then use it in the two roles the
paper proposes:

* **data source** — :meth:`collect` runs a scenario and fills the
  store; :meth:`build_dataset` runs the top-down featurization.
* **testbed** — :meth:`fresh_network` hands out new traffic days with
  the same configuration for road-testing deployed tools.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.capture.engine import CaptureEngine
from repro.capture.flows import FlowAssembler
from repro.capture.metadata import MetadataExtractor
from repro.capture.sensors import FirewallSensor, ServerLogSensor
from repro.capture.tap import BorderTap
from repro.chaos.resilience import DegradationLedger, TransientError, \
    retry
from repro.core.config import PlatformConfig
from repro.core.eventbus import EventBus
from repro.datastore.labels import Labeler
from repro.datastore.store import DataStore, ShardedDataStore
from repro.datastore.tiers import StreamingIngestor, TieredDataStore, \
    TieredShardedDataStore, TierPolicy
from repro.events.base import GroundTruth
from repro.events.scenario import Scenario, run_scenario
from repro.learning.dataset import Dataset
from repro.learning.features import FeatureConfig, SourceWindowFeaturizer
from repro.netsim.campus import make_campus
from repro.netsim.network import CampusNetwork
from repro.parallel import ParallelExecutor
from repro.privacy.policy import PrivacyLevel, PrivacyPolicy, \
    make_ingest_transform


@dataclass
class CollectionResult:
    """What one :meth:`CampusPlatform.collect` produced."""

    ground_truth: GroundTruth
    packets_captured: int
    flows_stored: int
    logs_stored: int
    capture_loss_rate: float
    duration_s: float
    wall_seconds: float


class CampusPlatform:
    """Instrumented campus network + data store, ready for research."""

    def __init__(self, config: Optional[PlatformConfig] = None,
                 fault_injector=None, obs=None):
        self.config = config or PlatformConfig()
        self.bus = EventBus()
        self.fault_injector = fault_injector
        if fault_injector is not None:
            fault_injector.bind_bus(self.bus)
        self.degradation = DegradationLedger(bus=self.bus)
        # Observability is pay-for-what-you-use: nothing is built
        # unless the caller passes one in or opts in via the config,
        # and every layer below guards on ``obs is not None``.
        if obs is None and self.config.obs_enabled:
            from repro.obs import Observability
            obs = Observability()
        self.obs = obs
        if obs is not None:
            obs.attach_bus(self.bus)
        self.network = self._build_network(self.config.seed)
        if self.config.privacy_key is not None:
            self.privacy_policy = PrivacyPolicy.preset(
                self.config.privacy_level, key=self.config.privacy_key)
        else:
            self.privacy_policy = PrivacyPolicy.preset(
                self.config.privacy_level)
        # Parallel substrate: the executor is lazy (no pool until the
        # first parallel fan-out) and degrades to serial via the ledger.
        self.executor = ParallelExecutor(
            workers=self.config.workers, ledger=self.degradation,
            fault_injector=fault_injector, obs=obs)
        extractor = MetadataExtractor(self.network.topology)
        if self.config.streaming:
            policy = TierPolicy(
                memtable_records=self.config.streaming_memtable_records)
            if self.config.store_shards > 1:
                self.store = TieredShardedDataStore(
                    n_shards=self.config.store_shards,
                    metadata_extractor=extractor,
                    fault_injector=fault_injector,
                    window_s=self.config.window_s,
                    executor=self.executor, obs=obs, policy=policy,
                    spill_dir=self.config.streaming_spill_dir,
                )
            else:
                self.store = TieredDataStore(
                    metadata_extractor=extractor, policy=policy,
                    spill_dir=self.config.streaming_spill_dir,
                    fault_injector=fault_injector, obs=obs,
                )
        elif self.config.store_shards > 1:
            self.store = ShardedDataStore(
                n_shards=self.config.store_shards,
                metadata_extractor=extractor,
                segment_capacity=self.config.segment_capacity,
                fault_injector=fault_injector,
                window_s=self.config.window_s,
                executor=self.executor,
                obs=obs,
            )
        else:
            self.store = DataStore(
                metadata_extractor=extractor,
                segment_capacity=self.config.segment_capacity,
                fault_injector=fault_injector,
                obs=obs,
            )
        self.store.add_ingest_transform(make_ingest_transform(
            self.privacy_policy, self.network.topology.is_internal_ip,
        ))
        self._instrument(self.network)
        self.collections: List[CollectionResult] = []

    # -- construction -------------------------------------------------------

    def _build_network(self, seed: int) -> CampusNetwork:
        return make_campus(self.config.campus_profile, seed=seed,
                           start_time=self.config.start_time)

    def _instrument(self, network: CampusNetwork) -> None:
        """Attach tap(s), capture engine, assembler, and sensors."""
        self.capture = CaptureEngine(
            capacity_gbps=self.config.capture_capacity_gbps,
            buffer_bytes=self.config.capture_buffer_bytes,
            fault_injector=self.fault_injector,
            shard_router=getattr(self.store, "router", None),
            obs=self.obs)
        links = [network.topology.border_link]
        if self.config.monitor_internal:
            links.extend(
                edge for edge in network.topology.edges()
                if {edge[0][:4], edge[1][:4]} == {"dist", "core"}
            )
        self.tap = BorderTap(network, self.capture, links=links,
                             fault_injector=self.fault_injector,
                             bus=self.bus)
        self.assembler = FlowAssembler()
        if self.config.streaming:
            # capture → bounded queue → tiered store; queue-full
            # refusals are charged back into the engine's loss stats
            # by the ingestor itself, so no _guard wrapper here.
            self.ingestor = StreamingIngestor(
                self.store, engine=self.capture,
                queue_records=self.config.streaming_queue_records,
                obs=self.obs)
        else:
            self.ingestor = None
            self.capture.subscribe(self._guard(self.store.ingest_packets,
                                               stage="store",
                                               site="store.ingest_packets"))
        self.capture.subscribe(self.assembler.add_packets)
        self.sensors = []
        if self.config.enable_sensors:
            server_logs = ServerLogSensor(network, seed=self.config.seed)
            firewall = FirewallSensor(network)
            for sensor in (server_logs, firewall):
                sensor.subscribe(self._guard(self.store.ingest_log,
                                             stage="sensors",
                                             site="store.ingest_log"))
                self.sensors.append(sensor)

    def _guard(self, ingest_fn, stage: str, site: str):
        """Resilient ingest wiring: retry transients, then degrade.

        Fault-free platforms keep the raw callback — zero overhead on
        the hot path.  Under chaos, transient store errors are retried
        with backoff; a failure that outlasts every retry sheds that
        one batch/record into the degradation ledger instead of killing
        the capture fan-out.
        """
        if self.fault_injector is None:
            return ingest_fn
        retried = self.store.resilient_ingestor(ingest_fn, bus=self.bus,
                                                site=site)

        def guarded(batch):
            try:
                return retried(batch)
            except TransientError as exc:
                self.degradation.degrade(stage, "shed-batch", repr(exc))
                return None
        return guarded

    def fresh_network(self, seed: int) -> CampusNetwork:
        """A new, uninstrumented traffic day for testbed use."""
        return self._build_network(seed)

    def close(self) -> None:
        """Release the worker pool (no-op when running serial)."""
        self.executor.shutdown()

    # -- data source role -------------------------------------------------------

    def collect(self, scenario: Scenario,
                seed: Optional[int] = None) -> CollectionResult:
        """Run a scenario on the instrumented campus; fill the store."""
        if self.obs is None:
            return self._collect(scenario, seed)
        with self.obs.span("capture.collect", scenario=scenario.name) \
                as span:
            result = self._collect(scenario, seed)
            span.set(packets=result.packets_captured,
                     flows=result.flows_stored)
        return result

    def _collect(self, scenario: Scenario,
                 seed: Optional[int] = None) -> CollectionResult:
        seed = self.config.seed if seed is None else seed
        start_wall = time.perf_counter()
        packets_before = self.capture.stats.packets_captured
        self.bus.publish("collect:start", scenario=scenario.name, seed=seed)
        ground_truth = run_scenario(self.network, scenario, seed=seed)
        if self.ingestor is not None:
            # Labeling below needs every queued batch in the store —
            # but compaction must wait until after label_all(): labels
            # are written into the in-memory segments only, so a packet
            # spilled to the cold tier first would stay unlabeled.
            self.ingestor.drain(compact=False)
        flow_records = self.assembler.flush()
        if self.fault_injector is not None:
            flows_stored = retry(
                lambda: self.store.ingest_flows(flow_records),
                clock=self.store.clock, bus=self.bus,
                site="store.ingest_flows")
        else:
            flows_stored = self.store.ingest_flows(flow_records)
        Labeler(self.store, ground_truth).label_all()
        if self.ingestor is not None:
            # now that every record carries its curated label, let the
            # compactor merge/spill to debt-free — labels ride along
            # into the cold format.
            while self.store.compactor.run():
                pass
        result = CollectionResult(
            ground_truth=ground_truth,
            packets_captured=(self.capture.stats.packets_captured
                              - packets_before),
            flows_stored=flows_stored,
            logs_stored=self.store.count("logs"),
            capture_loss_rate=self.capture.stats.loss_rate,
            duration_s=scenario.duration_s,
            wall_seconds=time.perf_counter() - start_wall,
        )
        self.collections.append(result)
        self.bus.publish("collect:done",
                         packets=result.packets_captured,
                         flows=result.flows_stored)
        return result

    def build_dataset(self, ground_truth: Optional[GroundTruth] = None,
                      time_range: Optional[Tuple] = None,
                      class_names: Optional[List[str]] = None,
                      window_s: Optional[float] = None) -> Dataset:
        """Top-down featurization straight off the data store."""
        if ground_truth is None:
            if not self.collections:
                raise RuntimeError("no collections yet; call collect() first")
            ground_truth = self.collections[-1].ground_truth
        featurizer = SourceWindowFeaturizer(FeatureConfig(
            window_s=window_s or self.config.window_s))
        if self.obs is None:
            dataset = featurizer.from_store(
                self.store, ground_truth=ground_truth,
                time_range=time_range, class_names=class_names,
                executor=self.executor,
            )
        else:
            with self.obs.span("devloop.featurize") as span:
                dataset = featurizer.from_store(
                    self.store, ground_truth=ground_truth,
                    time_range=time_range, class_names=class_names,
                    executor=self.executor,
                )
                span.set(rows=len(dataset))
        self.bus.publish("dataset:built", rows=len(dataset),
                         classes=dataset.class_counts())
        return dataset

    # -- reporting -----------------------------------------------------------------

    def summary(self) -> Dict:
        """Store + capture health overview."""
        out = {
            "campus": self.config.campus_profile,
            "privacy": self.config.privacy_level.value,
            "store": self.store.summary(),
            "capture": {
                "offered": self.capture.stats.packets_offered,
                "captured": self.capture.stats.packets_captured,
                "loss_rate": self.capture.stats.loss_rate,
            },
            "collections": len(self.collections),
        }
        if self.ingestor is not None:
            out["tiers"] = self.store.tier_summary()
            out["streaming"] = {
                "queue_accepted": self.ingestor.queue.accepted_records,
                "queue_rejected": self.ingestor.queue.rejected_records,
                "ingested": self.ingestor.ingested_records,
            }
        if self.config.workers or getattr(self.store, "shards", None):
            out["parallel"] = {
                **self.executor.summary(),
                "shards": getattr(self.store, "n_shards", 1),
            }
        if self.obs is not None:
            out["obs"] = {
                "spans": len(self.obs.tracer.spans),
                "metrics": len(self.obs.metrics),
                "trace_signature": self.obs.tracer.tree_signature(),
            }
        if self.fault_injector is not None:
            stats = self.capture.stats
            out["chaos"] = {
                "faults": self.fault_injector.counts(),
                "fault_drop_rate": stats.fault_drop_rate,
                "store_transient_errors": self.store.transient_errors,
                "degradations": len(self.degradation.entries),
                "dead_letters": self.bus.dead_letter_count,
            }
        return out
