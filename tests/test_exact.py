"""Tests for :mod:`repro.exact`: one rule for exact result values.

``identical`` and ``digest`` must agree on every value (``identical(a, b)``
exactly when ``digest(a) == digest(b)``), and ``decode(type(x),
encode(x))`` must give back a value identical to ``x`` for every result
type a checkpoint stores.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import FrozenSet, List, Optional, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CheckpointError
from repro.eval.chaos import fixed_mix_scenarios
from repro.exact import canonical_json, decode, digest, encode, identical
from repro.sim.chaos import (
    ChaosDriver,
    ChaosJudge,
    ChaosOutcome,
    ChaosScenario,
    build_bundle,
)
from repro.sim.faults import DecisionRecord, ResilienceReport
from repro.sim.supervise import CHECKPOINT_SCHEMA, load_checkpoint, save_checkpoint
from tests.test_chaos import PINNED_SCENARIO, chaos_cfg  # noqa: F401 (fixture)
from tests.test_supervise import synthetic_metrics

#: ``bundle_id`` of the ``chaos_cfg`` bundle for the ``integrity`` fixed
#: mix, computed before report encoding moved into :mod:`repro.exact`:
#: bundle IDs digest configurations, never results, so it must not move.
PINNED_BUNDLE_ID = "7df5266ab4942e2c"

SPECIAL = [0.0, -0.0, math.nan, math.inf, -math.inf, 1.5, 5e-324]


@dataclass(frozen=True)
class Inner:
    weight: float
    tags: FrozenSet[str]


@dataclass(frozen=True)
class Outer:
    name: str
    inner: Inner
    history: List[float]
    pair: Tuple[int, float]
    spare: Optional[Inner] = None


def _record(index: int, latency: float, status: str = "delivered") -> DecisionRecord:
    return DecisionRecord(
        index=index,
        status=status,
        tries=1,
        latency_s=latency,
        fallback=False,
        staleness=0,
    )


def _report(energy: float = 1e-6, latency: float = 2e-3) -> ResilienceReport:
    return ResilienceReport(
        records=[_record(0, latency), _record(1, math.nan, "dropped")],
        sensor_energy_j=energy,
        aggregator_energy_j=3e-6,
        retry_energy_j=0.0,
        retransmissions=2,
        fallback_events=0,
        deadline_misses=0,
        frames_sent=4,
    )


class TestIdentical:
    def test_nan_matches_nan(self):
        assert identical(math.nan, float("nan"))
        assert identical(math.nan, -math.nan)
        assert identical(_report(latency=math.nan), _report(latency=math.nan))

    def test_signed_zeros_differ(self):
        assert not identical(0.0, -0.0)
        assert not identical(_report(energy=0.0), _report(energy=-0.0))

    def test_infinities(self):
        assert identical(math.inf, math.inf)
        assert not identical(math.inf, -math.inf)
        assert not identical(math.inf, math.nan)

    def test_frozenset_order_is_not_part_of_the_value(self):
        a = frozenset(["fft", "mean", "dwt3", "zc", "std"])
        b = frozenset(sorted(a, reverse=True))
        assert identical(Inner(1.0, a), Inner(1.0, b))
        assert not identical(Inner(1.0, a), Inner(1.0, a | {"max"}))

    def test_nested_dataclasses(self):
        base = Outer("a", Inner(0.5, frozenset({"x"})), [1.0, math.nan], (3, -0.0))
        same = Outer("a", Inner(0.5, frozenset({"x"})), [1.0, math.nan], (3, -0.0))
        assert identical(base, same)
        assert not identical(base, Outer("a", base.inner, [1.0, math.nan], (3, 0.0)))
        assert not identical(
            base, Outer("a", Inner(0.5, frozenset({"y"})), base.history, base.pair)
        )
        spare = Outer("a", base.inner, base.history, base.pair, spare=base.inner)
        assert not identical(base, spare)

    def test_ndarrays(self):
        a = np.array([1.0, np.nan, -0.0, np.inf])
        assert identical(a, a.copy())
        assert identical(a, np.array([1.0, -np.nan, -0.0, np.inf]))
        assert not identical(a, np.array([1.0, np.nan, 0.0, np.inf]))
        assert not identical(a, a.astype(np.float32))  # dtype mismatch
        assert not identical(a, a.reshape(2, 2))  # shape mismatch
        assert not identical(np.arange(4), np.arange(4, dtype=np.int32))
        assert identical(np.arange(6).reshape(2, 3)[:, 1], np.array([1, 4]))

    def test_int_and_float_are_different_values(self):
        assert not identical(1, 1.0)
        assert digest(1) != digest(1.0)


SPECIAL_FLOATS = st.sampled_from(SPECIAL)


@st.composite
def reports(draw) -> ResilienceReport:
    n = draw(st.integers(0, 3))
    return ResilienceReport(
        records=[_record(i, draw(SPECIAL_FLOATS)) for i in range(n)],
        sensor_energy_j=draw(SPECIAL_FLOATS),
        aggregator_energy_j=draw(SPECIAL_FLOATS),
        retry_energy_j=draw(SPECIAL_FLOATS),
        retransmissions=draw(st.integers(0, 2)),
        fallback_events=0,
        deadline_misses=0,
    )


class TestDigestAgreesWithIdentical:
    @settings(max_examples=300, deadline=None)
    @given(a=reports(), b=reports())
    def test_identical_iff_digests_match(self, a, b):
        assert identical(a, b) == (digest(a) == digest(b))
        assert identical(a, a) and digest(a) == digest(a)


def _round_trip(value):
    data = json.loads(canonical_json(encode(value)))  # JSON-safe, exactly
    back = decode(type(value), data)
    assert type(back) is type(value)
    assert identical(back, value)
    return back


class TestRoundTrip:
    def test_decision_record(self):
        _round_trip(_record(7, math.nan, "dropped"))
        _round_trip(_record(8, -0.0))

    @pytest.mark.parametrize("energy", SPECIAL)
    def test_resilience_report(self, energy):
        back = _round_trip(_report(energy=energy))
        assert all(isinstance(r, DecisionRecord) for r in back.records)

    def test_chaos_score(self):
        judge = ChaosJudge(period_s=0.25, clean_sensor_j=1e-6)
        _round_trip(judge.score(_report()))
        _round_trip(judge.diverged_score())  # inf latency tail

    @pytest.mark.parametrize("with_report", [True, False])
    def test_chaos_outcome(self, with_report):
        report = _report() if with_report else None
        judge = ChaosJudge(period_s=0.25, clean_sensor_j=1e-6)
        outcome = ChaosOutcome(
            scenario=ChaosScenario(**PINNED_SCENARIO),
            score=judge.score(_report()) if with_report else judge.diverged_score(),
            report=report,
            digest=None if report is None else digest(report),
            generation=2,
        )
        back = _round_trip(outcome)
        assert back.scenario.key == outcome.scenario.key

    def test_partition_metrics(self):
        metrics = synthetic_metrics(in_sensor=frozenset({"mean", "std", "fft"}))
        back = _round_trip(metrics)
        assert back == metrics

    def test_ndarray(self):
        a = np.array([[1.0, np.nan], [-0.0, np.inf]], dtype=np.float32)
        back = decode(np.ndarray, json.loads(canonical_json(encode(a))))
        assert identical(back, a) and back.flags.writeable


class TestCheckpointSchema:
    def test_v1_checkpoint_rejected(self, tmp_path):
        path = tmp_path / "ck.json"
        save_checkpoint(path, "campaign", "k", {"cursor": 1})
        doc = json.loads(path.read_text())
        assert doc["schema"] == CHECKPOINT_SCHEMA == "xpro-checkpoint-v2"
        doc["schema"] = "xpro-checkpoint-v1"
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointError, match="xpro-checkpoint-v2"):
            load_checkpoint(path, "campaign", "k")


def test_bundle_id_unchanged(chaos_cfg):  # noqa: F811 (fixture)
    scenario = fixed_mix_scenarios(200, seed=11)["integrity"]
    report = ChaosDriver(chaos_cfg).run(scenario)
    assert build_bundle(scenario, chaos_cfg, report)["bundle_id"] == PINNED_BUNDLE_ID
