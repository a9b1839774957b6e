"""Tests of the benchmark's own code: input generation, metric names,
repeatable per-layer counts and the restoring of wrapped functions."""

import json
import re
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import run
from inputs import WORKLOADS, make_inputs
from tracing import COUNTERS, LAYERS, Tracer

cli = run.import_cli()
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _small_inputs():
    """The first few inputs of every workload, the cheapest of each."""
    return [argv for workload in WORKLOADS for argv in make_inputs(workload, 0)[:3]]


def _bindings():
    found = {}
    for name, module in list(sys.modules.items()):
        if name == "kreps" or name.startswith("kreps."):
            for attr, value in vars(module).items():
                if isinstance(value, types.FunctionType):
                    found[(name, attr)] = value
    found["LaurentMatrix.__matmul__"] = sys.modules["kreps.laurent"].LaurentMatrix.__dict__["__matmul__"]
    return found


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_same_argv_lists(workload):
    first = make_inputs(workload, 7)
    assert first == make_inputs(workload, 7)
    assert first != make_inputs(workload, 8)
    assert all(isinstance(arg, str) for argv in first for arg in argv)


def test_metric_names_match_the_pattern_and_the_code():
    end_to_end = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert list(end_to_end.items()) == list(run.UNITS.items())
    layer_units = {f"{layer}.self_s": "s" for layer in LAYERS} | COUNTERS
    assert list(per_layer.items()) == list(layer_units.items())
    for name in [*end_to_end, *per_layer, *(w["name"] for w in BENCHMARK["workloads"])]:
        assert NAME.fullmatch(name), name
    assert {w["name"] for w in BENCHMARK["workloads"]} <= set(WORKLOADS)


def test_two_traced_runs_of_one_seed_give_identical_counts():
    inputs = _small_inputs()
    totals = []
    for _ in range(2):
        with Tracer() as tracer:
            result = run.measure(cli, inputs, 0, None, tracer)
        assert result["failed"] == 0 and result["correct"]
        totals.append({name: sum(c[name] for c in result["counts"]) for name in COUNTERS})
    assert totals[0] == totals[1]
    assert totals[0]["presentations.alexander_matrix.calls"] > 0
    assert totals[0]["colorings.transport_candidates"] > 0


def test_traced_run_restores_every_wrapped_function():
    before = _bindings()
    with Tracer() as tracer:
        assert _bindings() != before
        run.measure(cli, _small_inputs()[:2], 0, None, tracer)
    assert _bindings() == before


def test_output_that_differs_from_the_reference_is_wrong_and_failed():
    inputs = _small_inputs()[:2]
    result = run.measure(cli, inputs, 0, ["00000000"] * len(inputs))
    assert not result["correct"]
    assert result["failed"] == len(inputs)


def test_untraced_report_runs_outside_any_tracer():
    elapsed, outcome, stdout = run.call_report(cli, ["knot", "1 1 1", "-n", "2", "--json"])
    assert outcome == "exit 0" and json.loads(stdout)["determinant"] == "3" and elapsed > 0


def test_exits_nonzero_without_a_result_when_sources_are_missing(tmp_path):
    shutil.copytree(run.BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "table", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
    assert not Path(tmp_path / "perfbench" / "out").exists()
