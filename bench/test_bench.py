"""Self-test of the benchmark, at a tiny size.

  python3 -m pytest -q bench/test_bench.py

Runs every workload once untraced and twice traced on one seed, then
checks that each declared metric is emitted with its unit, that traced
counts repeat exactly, that the CLI output bytes do not change under
tracing, and that every wrapped function is restored.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import run
from one_pass import run_commands
from tracer import Tracer
from workloads import ROOT, WORKLOADS, commands, import_package

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 3


@pytest.fixture(scope="module")
def runs() -> dict:
    """Per workload: (result, record) of one untraced and two traced runs."""
    return {
        workload: [run.run_workload(workload, SEED, 0.1, trace, "tiny")
                   for trace in (False, True, True)]
        for workload in WORKLOADS
    }


def _units(result: dict) -> dict:
    return {name: metric["unit"] for name, metric in result["metrics"].items()}


def test_every_declared_metric_is_emitted_with_its_unit(runs):
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    end_to_end = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for workload, ((plain, _), (traced, _), _) in runs.items():
        assert plain["correct"] and plain["failed"] == 0, workload
        assert plain["attempted"] == len(commands(workload, SEED, "tiny"))
        assert _units(plain) == end_to_end, workload
        assert traced["correct"] and traced["failed"] == 0, workload
        assert _units(traced) == per_layer, workload


def test_traced_counts_repeat_exactly(runs):
    for workload, (_, (first, first_record), (second, _)) in runs.items():
        assert first_record["summary"]["counts_repeat"], workload
        for name, metric in first["metrics"].items():
            if metric["unit"] not in ("s", "s/s"):
                assert metric["value"] == second["metrics"][name]["value"], (workload, name)
    calls = runs["m1k3"][1][0]["metrics"]
    assert calls["scheme_m1k3.SymbolId.hash_calls"]["value"] > 0
    assert calls["scheme_m1k3.solve_precoders.calls"]["value"] > 0
    assert runs["tradeoff"][1][0]["metrics"]["bounds.lower_bound_curve.calls"]["value"] > 0


def test_cli_output_is_identical_traced_and_untraced(runs):
    for workload, results in runs.items():
        passes = [p for _, record in results for p in record["passes"]]
        assert {p["traced"] for p in passes} == {False, True}
        digests = {tuple(c["sha256"] for c in p["commands"]) for p in passes}
        assert len(digests) == 1, workload


def test_every_wrapped_function_is_restored(runs):
    for workload, (_, *traced) in runs.items():
        for _, record in traced:
            assert record["restored"], workload
            assert record["summary"]["missing_layers"] == [], workload

    ndtcache = import_package()
    owners = [m for name, m in sys.modules.items()
              if name == "ndtcache" or name.startswith("ndtcache.")]
    owners += [sys.modules["numpy.linalg"], ndtcache.ChannelSet, ndtcache.NdtCurve,
               ndtcache.SymbolId]
    before = {(id(owner), attr): value for owner in owners
              for attr, value in list(vars(owner).items())}
    tracer = Tracer()
    tracer.install()
    try:
        assert ndtcache.verify.solve_precoders is not before[
            (id(ndtcache.verify), "solve_precoders")]
        results = run_commands(ndtcache.cli, commands("m1k3", SEED, "tiny"))
    finally:
        tracer.restore()
    assert [code for code, *_ in results] == [0, 0]
    assert tracer.summary()["hash_calls"] > 0
    assert tracer.restored()
    after = {(id(owner), attr): value for owner in owners
             for attr, value in list(vars(owner).items())}
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "m1k3", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
