"""Tests for fault models, fault campaigns and graceful degradation."""

import math

import numpy as np
import pytest

from repro.core.adaptive import AdaptivePartitionController, LossRateEstimator
from repro.core.degrade import (
    GracefulDegradationPolicy,
    LastKnownGoodCache,
)
from repro.core.generator import AutomaticXProGenerator
from repro.errors import ConfigurationError, SimulationError
from repro.graph.cuts import sensor_cut
from repro.hw.arq import ARQConfig
from repro.hw.wireless import WirelessLink
from repro.sim.channel import GilbertElliottParams
from repro.sim.evaluate import evaluate_partition
from repro.sim.faults import (
    AggregatorStall,
    BurstLoss,
    FaultCampaign,
    LinkOutage,
    PayloadCorruption,
    SensorBrownout,
)
from repro.sim.simulator import CrossEndSimulator


@pytest.fixture(scope="module")
def fault_env(request):
    """Clean-link primary (cross) and fallback (sensor) metrics + simulator."""
    topo = request.getfixturevalue("tiny_topology")
    lib = request.getfixturevalue("energy_lib_90")
    cpu = request.getfixturevalue("cpu_model")
    link = WirelessLink("model2")
    generator = AutomaticXProGenerator(topo, lib, link, cpu)
    primary = generator.generate().metrics
    fallback = evaluate_partition(topo, sensor_cut(topo), lib, link, cpu)
    simulator = CrossEndSimulator(primary, period_s=0.25, seed=3)
    return simulator, primary, fallback


def standard_campaign(seed=5):
    return FaultCampaign(
        [
            BurstLoss(GilbertElliottParams(0.02, 0.10, 0.01, 0.6)),
            PayloadCorruption(0.01),
            LinkOutage(start_event=100, n_events=40),
            SensorBrownout(start_event=300, n_events=5),
            AggregatorStall(start_event=400, n_events=20, extra_delay_s=2e-3),
        ],
        seed=seed,
    )


class TestFaultModels:
    def test_outage_window(self):
        outage = LinkOutage(start_event=10, n_events=5)
        assert not outage.try_lost(9, 1)
        assert outage.try_lost(10, 1) and outage.try_lost(14, 3)
        assert not outage.try_lost(15, 1)

    def test_brownout_and_stall_windows(self):
        brown = SensorBrownout(start_event=2, n_events=2)
        assert [brown.sensor_brownout(k) for k in range(5)] == [
            False, False, True, True, False,
        ]
        stall = AggregatorStall(start_event=1, n_events=1, extra_delay_s=3e-3)
        assert stall.stall_s(0) == 0.0
        assert stall.stall_s(1) == pytest.approx(3e-3)

    def test_window_validation(self):
        with pytest.raises(ConfigurationError):
            LinkOutage(start_event=-1, n_events=5)
        with pytest.raises(ConfigurationError):
            SensorBrownout(start_event=0, n_events=0)
        with pytest.raises(ConfigurationError):
            AggregatorStall(start_event=0, n_events=1, extra_delay_s=-1.0)
        with pytest.raises(ConfigurationError):
            PayloadCorruption(rate=1.5)
        # A fully-corrupting channel (rate = 1.0) is legal: under bounded
        # ARQ it saturates at max_retries + 1 tries, exactly like
        # loss_rate = 1.0 (see tests/test_framing.py).
        PayloadCorruption(rate=1.0)

    def test_stochastic_faults_require_reset(self):
        with pytest.raises(ConfigurationError):
            BurstLoss().try_lost(0, 1)
        with pytest.raises(ConfigurationError):
            PayloadCorruption(0.5).try_lost(0, 1)

    def test_corruption_rate_statistics(self):
        fault = PayloadCorruption(0.2)
        fault.reset(np.random.default_rng(0))
        hits = sum(fault.try_lost(k, 1) for k in range(20_000))
        assert hits / 20_000 == pytest.approx(0.2, abs=0.01)


class TestCampaignComposition:
    def test_needs_fault_models(self):
        with pytest.raises(ConfigurationError):
            FaultCampaign([])
        with pytest.raises(ConfigurationError):
            FaultCampaign(["not a fault"])

    def test_loss_composes_by_or(self):
        campaign = FaultCampaign(
            [LinkOutage(0, 2), SensorBrownout(5, 1)], seed=0
        )
        assert campaign.try_lost(0, 1)
        assert not campaign.try_lost(2, 1)
        assert campaign.sensor_brownout(5)
        assert not campaign.sensor_brownout(4)

    def test_stalls_compose_by_sum(self):
        campaign = FaultCampaign(
            [
                AggregatorStall(0, 3, extra_delay_s=1e-3),
                AggregatorStall(2, 3, extra_delay_s=2e-3),
            ],
            seed=0,
        )
        assert campaign.stall_s(2) == pytest.approx(3e-3)

    def test_reset_restores_stochastic_sequences(self):
        campaign = FaultCampaign(
            [BurstLoss(GilbertElliottParams(0.05, 0.05, 0.01, 0.7))], seed=9
        )
        first = [campaign.try_lost(k, 1) for k in range(500)]
        campaign.reset()
        second = [campaign.try_lost(k, 1) for k in range(500)]
        assert first == second


class TestCampaignRun:
    def test_bit_for_bit_reproducible(self, fault_env):
        simulator, _, fallback = fault_env
        campaign = standard_campaign()
        kwargs = dict(
            arq=ARQConfig(max_retries=3),
            policy=GracefulDegradationPolicy(),
            fallback_metrics=fallback,
            cache=LastKnownGoodCache(),
        )
        a = campaign.run(simulator, 500, **kwargs)
        b = campaign.run(simulator, 500, **kwargs)
        assert a == b  # frozen dataclasses: exact record & energy equality

    def test_bounded_arq_keeps_tries_finite(self, fault_env):
        simulator, _, _ = fault_env
        report = standard_campaign().run(
            simulator, 500, arq=ARQConfig(max_retries=3)
        )
        assert report.worst_tries <= 4
        assert math.isfinite(report.max_latency_s)
        assert report.n_dropped > 0  # the outage window drops payloads

    def test_unbounded_arq_diverges_in_outage(self, fault_env):
        simulator, _, _ = fault_env
        with pytest.raises(SimulationError):
            standard_campaign().run(simulator, 500, arq=None)

    def test_degradation_restores_availability(self, fault_env):
        simulator, _, fallback = fault_env
        campaign = standard_campaign()
        plain = campaign.run(simulator, 500, arq=ARQConfig(max_retries=3))
        degraded = campaign.run(
            simulator,
            500,
            arq=ARQConfig(max_retries=3),
            policy=GracefulDegradationPolicy(),
            fallback_metrics=fallback,
            cache=LastKnownGoodCache(),
        )
        assert degraded.availability > plain.availability
        assert degraded.availability >= 0.99
        assert degraded.n_degraded > 0
        assert degraded.fallback_events > 0

    def test_all_dropped_campaign_reports_nan_latency_stats(self, fault_env):
        """A total outage with no cache serves nothing: the latency stats
        must be NaN (no distribution), never 0.0 or an exception."""
        simulator, _, _ = fault_env
        campaign = FaultCampaign(
            [LinkOutage(start_event=0, n_events=50)], seed=2
        )
        report = campaign.run(simulator, 50, arq=ARQConfig(max_retries=3))
        assert report.availability == 0.0
        assert report.n_dropped == 50
        assert math.isnan(report.mean_latency_s)
        assert math.isnan(report.max_latency_s)
        assert math.isnan(report.latency_percentile(99.0))
        # The NaN sentinel survives the digest pipeline (hex float tokens).
        from repro.exact import digest

        assert digest(report) == digest(report)

    def test_fallback_engages_and_recovers(self, fault_env):
        simulator, _, fallback = fault_env
        report = standard_campaign().run(
            simulator,
            500,
            arq=ARQConfig(max_retries=3),
            policy=GracefulDegradationPolicy(outage_threshold=3,
                                             recovery_hysteresis=8),
            fallback_metrics=fallback,
            cache=LastKnownGoodCache(),
        )
        in_outage = [r for r in report.records if 110 <= r.index < 140]
        assert all(r.fallback for r in in_outage)
        tail = [r for r in report.records if r.index >= 490]
        assert all(not r.fallback for r in tail)

    def test_degraded_records_carry_staleness(self, fault_env):
        simulator, _, fallback = fault_env
        report = standard_campaign().run(
            simulator,
            500,
            arq=ARQConfig(max_retries=3),
            policy=GracefulDegradationPolicy(),
            fallback_metrics=fallback,
            cache=LastKnownGoodCache(),
        )
        degraded = [r for r in report.records if r.status == "degraded"]
        assert degraded
        assert all(r.staleness >= 1 for r in degraded)
        assert all(math.isfinite(r.latency_s) for r in degraded)

    def test_faultless_run_matches_plain_simulator(self, fault_env):
        simulator, primary, _ = fault_env
        # The only fault sits far beyond the simulated horizon.
        campaign = FaultCampaign([LinkOutage(10_000, 1)], seed=0)
        report = campaign.run(simulator, 50, arq=ARQConfig(max_retries=3))
        plain = simulator.run(50)
        assert report.availability == 1.0
        assert report.retransmissions == 0
        assert report.sensor_energy_j == pytest.approx(plain.sensor_energy_j)
        assert report.aggregator_energy_j == pytest.approx(
            plain.aggregator_energy_j
        )
        assert report.mean_latency_s == pytest.approx(plain.mean_latency_s)

    def test_invalid_arguments(self, fault_env):
        simulator, _, _ = fault_env
        campaign = standard_campaign()
        with pytest.raises(ConfigurationError):
            campaign.run(simulator, 0)
        with pytest.raises(ConfigurationError):
            campaign.run(
                simulator, 10, policy=GracefulDegradationPolicy()
            )  # policy without fallback metrics

    def test_report_percentile_validation(self, fault_env):
        simulator, _, _ = fault_env
        report = standard_campaign().run(
            simulator, 50, arq=ARQConfig(max_retries=3)
        )
        with pytest.raises(ConfigurationError):
            report.latency_percentile(101)
        assert report.latency_percentile(0) <= report.latency_percentile(100)


class TestGracefulDegradationPolicy:
    def test_enters_after_threshold_and_recovers_after_hysteresis(self):
        policy = GracefulDegradationPolicy(outage_threshold=3,
                                           recovery_hysteresis=2)
        assert not policy.observe(False)
        assert not policy.observe(False)
        assert policy.observe(False)  # third consecutive drop
        assert policy.observe(True)   # one delivery is not enough
        assert not policy.observe(True)
        assert policy.transitions == 2

    def test_interleaved_drops_do_not_trigger(self):
        policy = GracefulDegradationPolicy(outage_threshold=3)
        for _ in range(10):
            policy.observe(False)
            policy.observe(True)
        assert not policy.in_fallback

    def test_reset_and_validation(self):
        policy = GracefulDegradationPolicy(outage_threshold=1)
        policy.observe(False)
        assert policy.in_fallback
        policy.reset()
        assert not policy.in_fallback and policy.transitions == 0
        with pytest.raises(ConfigurationError):
            GracefulDegradationPolicy(outage_threshold=0)
        with pytest.raises(ConfigurationError):
            GracefulDegradationPolicy(recovery_hysteresis=0)


class TestLastKnownGoodCache:
    def test_empty_cache_refuses(self):
        assert LastKnownGoodCache().serve() is None

    def test_staleness_grows_per_serve(self):
        cache = LastKnownGoodCache()
        cache.update("decision")
        first, second = cache.serve(), cache.serve()
        assert (first.value, first.staleness) == ("decision", 1)
        assert second.staleness == 2
        cache.update("fresh")
        assert cache.serve().staleness == 1

    def test_staleness_bound(self):
        cache = LastKnownGoodCache(max_staleness=2)
        cache.update(7)
        assert cache.serve() is not None
        assert cache.serve() is not None
        assert cache.serve() is None  # too stale now

    def test_reset_and_validation(self):
        cache = LastKnownGoodCache()
        cache.update(1)
        cache.reset()
        assert cache.serve() is None
        with pytest.raises(ConfigurationError):
            LastKnownGoodCache(max_staleness=0)


class TestControllerDegradationWiring:
    @pytest.fixture(scope="class")
    def clean_generator(self, request):
        topo = request.getfixturevalue("tiny_topology")
        lib = request.getfixturevalue("energy_lib_90")
        cpu = request.getfixturevalue("cpu_model")
        return AutomaticXProGenerator(topo, lib, WirelessLink("model2"), cpu)

    def test_active_partition_falls_back_and_recovers(self, clean_generator):
        ctrl = AdaptivePartitionController(
            clean_generator,
            recheck_interval=1000,
            degradation=GracefulDegradationPolicy(outage_threshold=2,
                                                  recovery_hysteresis=2),
        )
        assert ctrl.active_partition is ctrl.current
        ctrl.observe_event(True)
        ctrl.observe_event(True)
        assert ctrl.active_partition.label == "sensor-fallback"
        assert ctrl.active_partition.in_sensor == sensor_cut(
            clean_generator.topology
        )
        ctrl.observe_event(False)
        ctrl.observe_event(False)
        assert ctrl.active_partition is ctrl.current

    def test_without_policy_active_is_current(self, clean_generator):
        ctrl = AdaptivePartitionController(clean_generator, recheck_interval=1000)
        ctrl.observe_event(True)
        assert ctrl.active_partition is ctrl.current

    def test_boundary_estimate_raises_with_unbounded_link(self, clean_generator):
        ctrl = AdaptivePartitionController(clean_generator, recheck_interval=1)
        ctrl.estimator = LossRateEstimator(alpha=1.0)
        with pytest.raises(ConfigurationError):
            ctrl.observe_event(True)  # estimate hits exactly 1.0 -> 1/(1-p)

    def test_boundary_estimate_saturates_with_bounded_arq(self, request):
        topo = request.getfixturevalue("tiny_topology")
        lib = request.getfixturevalue("energy_lib_90")
        cpu = request.getfixturevalue("cpu_model")
        generator = AutomaticXProGenerator(
            topo, lib,
            WirelessLink("model2", arq=ARQConfig(max_retries=2)), cpu,
        )
        ctrl = AdaptivePartitionController(generator, recheck_interval=1)
        ctrl.estimator = LossRateEstimator(alpha=1.0)
        event = ctrl.observe_event(True)
        assert event is not None
        assert event.loss_estimate == 1.0
        assert math.isfinite(event.energy_after_j)
