"""The benchmark's reports, byte for byte: every ``knots`` and ``table``
input of seeds 0-1 and every ``surfaces`` input of seed 0, run with
``--json`` as ``perfbench/run.py`` runs them, must give the fingerprints
recorded in ``perfbench/references.json``."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import run  # noqa: E402
from inputs import make_inputs  # noqa: E402

import kreps.cli as cli  # noqa: E402


@pytest.mark.parametrize(
    "workload, seed", [("knots", 0), ("knots", 1), ("table", 0), ("table", 1), ("surfaces", 0)]
)
def test_reports_match_the_recorded_fingerprints(monkeypatch, workload, seed):
    monkeypatch.delenv("KREPS_ENUM_CAP", raising=False)
    inputs = make_inputs(workload, seed)
    reference = run.load_reference(workload, seed)
    assert reference is not None and len(reference) == len(inputs)
    for argv, mark in zip(inputs, reference):
        _, outcome, stdout = run.call_report(cli, argv + ["--json"])
        assert run.fingerprint(outcome, stdout) == mark, argv
