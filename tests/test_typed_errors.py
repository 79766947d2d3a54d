"""Internal invariants raise typed :mod:`repro.errors`, never ``assert``.

``python -O`` strips ``assert`` statements, so a broken invariant would
surface as an unrelated ``TypeError``/``AttributeError`` far from its
cause.  One test per former ``assert`` site.
"""

import numpy as np
import pytest

from repro.core.pipeline import TrainingConfig, train_analytic_engine
from repro.errors import ConfigurationError, IntegrityError
from repro.graph.maxflow import FlowNetwork
from repro.hw.arq import ARQConfig
from repro.hw.framing import FrameBatch, FramingConfig, decode_frames, encode_frames
from repro.sim.faults import BurstLoss, FaultCampaign


def _network():
    net = FlowNetwork()
    net.add_edge("s", "a", 3.0)
    net.add_edge("a", "t", 2.0)
    return net


class TestFramingInvariants:
    def test_verified_frame_without_payload_is_integrity_error(self):
        batch = FrameBatch(
            ok=np.array([True]),
            seq=np.array([0]),
            last=np.array([True]),
            crc_protected=np.array([True]),
            payloads=[None],
            errors=[None],
        )
        with pytest.raises(IntegrityError, match="no payload"):
            batch.frame(0)

    def test_crc_mismatch_reports_trailer_and_computed(self):
        config = FramingConfig()
        matrix, lengths = encode_frames([b"\x01\x02\x03\x04"], [9], config)
        matrix[0, int(lengths[0]) - 1] ^= 0x01  # break the trailer only
        batch = decode_frames(matrix, config, lengths)
        assert not batch.ok[0]
        assert batch.errors[0].startswith("CRC mismatch: trailer 0x")
        assert ", computed 0x" in batch.errors[0]


class TestMaxflowCloneArguments:
    @pytest.mark.parametrize("both", [False, True])
    def test_exactly_one_capacity_vector(self, both):
        net = _network()
        caps = [1.0, 1.0] if both else None
        arcs = [0.0] * 4 if both else None
        with pytest.raises(ConfigurationError, match="exactly one"):
            net.clone_with_capacities(
                forward_capacities=caps, residual_capacities=arcs
            )

    def test_residual_clone_still_works(self):
        clone = _network().clone_with_capacities(
            residual_capacities=[3.0, 0.0, 2.0, 0.0]
        )
        assert clone.n_forward_edges == 2


class TestFaultRunnerArming:
    def test_unarmed_burst_loss_is_configuration_error(self, tiny_topology):
        """The fast runner reads the chain that reset() arms; skipping the
        reset (as a resume does) with the chain not restored raises."""
        from repro.core.generator import AutomaticXProGenerator
        from repro.hw.aggregator import AggregatorCPU
        from repro.hw.energy import EnergyLibrary
        from repro.hw.wireless import WirelessLink
        from repro.sim.simulator import CrossEndSimulator

        lib, link, cpu = EnergyLibrary("90nm"), WirelessLink("model2"), AggregatorCPU()
        metrics = AutomaticXProGenerator(tiny_topology, lib, link, cpu).generate().metrics
        campaign = FaultCampaign([BurstLoss()], seed=1)
        campaign.faults[0]._channel = None  # state a restore failed to bring back
        with pytest.raises(ConfigurationError, match="reset"):
            campaign._run_fast(
                CrossEndSimulator(metrics, period_s=0.25, seed=3),
                10,
                ARQConfig(max_retries=2),
                None,
                None,
                None,
                None,
                resume_state=object(),
            )

    def test_armed_channel_before_reset(self):
        with pytest.raises(ConfigurationError, match="reset"):
            BurstLoss().armed_channel()


class TestPipelineSplitRepeats:
    def test_zero_repeats_is_configuration_error(self, tiny_dataset):
        config = TrainingConfig(subspace_dim=4, n_draws=2)
        # Bypass the constructor check to reach the training loop itself.
        object.__setattr__(config, "split_repeats", 0)
        with pytest.raises(ConfigurationError, match="split_repeats"):
            train_analytic_engine(tiny_dataset, config)
