"""Perf gate floors only ratchet up.

``scripts/update_perf_baseline.py`` keeps any committed floor a refresh
would lower unless given ``--allow-lower REASON``; the reason is stored in
the baseline JSON and ``scripts/check_perf_regression.py`` prints it.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from repro.errors import ConfigurationError
from repro.eval.perf import (
    GATE_MARGIN,
    SCHEMA,
    TRACKED_METRICS,
    gate_lowering_note,
    ratchet_gate,
)

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _report(value):
    metrics = {name: value for name in TRACKED_METRICS}
    return {
        "schema": SCHEMA,
        "metrics": metrics,
        "tracked": list(TRACKED_METRICS),
        "gate": {name: round(value * GATE_MARGIN, 2) for name in metrics},
        "cases": {},
    }


class TestRatchetGate:
    def test_higher_floors_are_taken(self):
        gate, below = ratchet_gate({"a": 2.0}, {"a": 3.0, "b": 1.0})
        assert gate == {"a": 3.0, "b": 1.0}
        assert below == {}

    def test_lower_floor_is_held_without_a_reason(self):
        gate, below = ratchet_gate({"a": 5.0, "b": 1.0}, {"a": 4.0, "b": 2.0})
        assert gate == {"a": 5.0, "b": 2.0}
        assert below == {"a": [5.0, 4.0]}

    def test_lower_floor_needs_a_reason(self):
        gate, below = ratchet_gate({"a": 5.0}, {"a": 4.0}, allow_lower="new runner")
        assert gate == {"a": 4.0}
        assert below == {"a": [5.0, 4.0]}
        with pytest.raises(ConfigurationError):
            ratchet_gate({"a": 5.0}, {"a": 4.0}, allow_lower="  ")

    def test_note_names_floors_and_reason(self):
        assert gate_lowering_note({"gate": {}}) is None
        note = gate_lowering_note(
            {"gate_lowered": {"reason": "slower host", "floors": {"a": [5.0, 4.0]}}}
        )
        assert "a 5.00 -> 4.00" in note and "slower host" in note


class TestBaselineScripts:
    def _refresh(self, monkeypatch, out, measured, *extra):
        update = _script("update_perf_baseline")
        monkeypatch.setattr(update, "collect_perf_report", lambda fast: _report(measured))
        assert update.main(["--runs", "1", "--out", str(out), *extra]) == 0
        return json.loads(out.read_text())

    def test_refresh_never_lowers_a_committed_floor(self, tmp_path, monkeypatch):
        out = tmp_path / "BENCH_perf.json"
        first = self._refresh(monkeypatch, out, 10.0)
        second = self._refresh(monkeypatch, out, 5.0)
        assert second["gate"] == first["gate"]
        assert "gate_lowered" not in second
        third = self._refresh(monkeypatch, out, 20.0)
        assert all(third["gate"][n] > first["gate"][n] for n in TRACKED_METRICS)

    def test_allow_lower_records_reason_and_gate_prints_it(
        self, tmp_path, monkeypatch, capsys
    ):
        out = tmp_path / "BENCH_perf.json"
        self._refresh(monkeypatch, out, 10.0)
        lowered = self._refresh(
            monkeypatch, out, 5.0, "--allow-lower", "retired slow twin"
        )
        assert lowered["gate"] == {n: 3.0 for n in TRACKED_METRICS}
        assert lowered["gate_lowered"]["reason"] == "retired slow twin"
        assert lowered["gate_lowered"]["floors"]["inference.speedup"] == [6.0, 3.0]
        fresh = tmp_path / "fresh.json"
        fresh.write_text(json.dumps(_report(5.0)))
        capsys.readouterr()
        check = _script("check_perf_regression")
        assert check.main([str(fresh), str(out)]) == 0
        printed = capsys.readouterr().out
        assert "retired slow twin" in printed
        assert "inference.speedup 6.00 -> 3.00" in printed
