"""The switch ticks only while it holds unevaluated windows.

:class:`EveryWindowSwitch` keeps the reference behaviour: one tick per
window, for as long as the simulation runs.  The switch itself pauses
its tick chain when every window it holds has been evaluated and re-arms
it, on the same grid, at the next delivered batch.  Detections (with
their decision and mitigation times), the mitigation log and the
untracked-packet count must come out the same, on a live attack day and
on a replay with hours of silence in it.
"""

import dataclasses
import math

from repro.deploy.switch import EmulatedSwitch, SwitchConfig
from repro.events import DnsAmplificationAttack, Scenario, run_scenario
from repro.netsim import make_campus

from tests.deploy.replay import ReplayNetwork
from tests.deploy.test_switch import _ddos_classifier

COMPILED = _ddos_classifier()
CONFIG = dict(window_s=5.0, grace_s=2.0, confidence_threshold=0.9,
              mitigation_duration_s=60.0, max_tracked_keys=4)


class EveryWindowSwitch(EmulatedSwitch):
    """Reference: the tick chain never pauses."""

    ticks = 0

    def _tick(self):
        self.ticks += 1
        super()._tick()
        if not self._tick_armed:
            self._tick_armed = True
            self.network.simulator.schedule(self.config.window_s,
                                            self._tick, name="switch-tick")


class CountingSwitch(EmulatedSwitch):
    ticks = 0

    def _tick(self):
        self.ticks += 1
        super()._tick()


def _attack_day(switch_cls, recorded=None):
    net = make_campus("tiny", seed=50)
    switch = switch_cls(net, COMPILED, SwitchConfig(**CONFIG))
    if recorded is not None:
        net.add_packet_observer(recorded.extend)
    scenario = Scenario("ddos-day", duration_s=45.0)
    scenario.add(DnsAmplificationAttack, 10.0, 20.0, attack_gbps=0.1,
                 resolvers=8)
    run_scenario(net, scenario, seed=4)
    return switch


def _outcome(switch):
    return ([dataclasses.asdict(d) for d in switch.detections],
            switch.mitigation_log, switch.untracked_packets,
            switch.packets_processed)


def test_attack_day_matches_every_window_ticks():
    paused = _attack_day(CountingSwitch)
    reference = _attack_day(EveryWindowSwitch)
    assert paused.detections
    assert paused.untracked_packets
    assert _outcome(paused) == _outcome(reference)


def test_replay_with_hours_of_silence_matches_every_window_ticks():
    recorded = []
    _attack_day(EmulatedSwitch, recorded)
    recorded.sort(key=lambda p: p.timestamp)
    gap = 3 * 3600.0 + 2.5
    later = [dataclasses.replace(p, timestamp=p.timestamp + gap)
             for p in recorded]
    packets = recorded + later
    outcomes = []
    for switch_cls in (CountingSwitch, EveryWindowSwitch):
        network = ReplayNetwork(start_time=math.floor(packets[0].timestamp))
        switch = switch_cls(network, COMPILED, SwitchConfig(**CONFIG))
        network.replay(packets)
        outcomes.append((switch, _outcome(switch)))
    (paused, got), (reference, want) = outcomes
    assert got[0] and got[2]
    # both days detect, the second one hours after the first
    assert max(d["decided_at"] for d in got[0]) > gap
    assert got == want
    # the silence costs the paused chain nothing
    assert paused.ticks * 100 < reference.ticks
