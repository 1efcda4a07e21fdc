"""Tests of the benchmark itself (not part of the package's test suite).

    python3 -m pytest -q perfbench

The work counters must repeat exactly between runs, or a later change could
not cite them; the default seed must reproduce today's panel and refinement
counts; the tracer must tolerate a layer that no longer exists.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

import run

run.import_package()
import scenarios  # noqa: E402
import tracer  # noqa: E402

TIMING_FREE = ("calls", "scattering.momenta", "scattering.momenta_per_node",
               "quadrature.nodes", "quadrature.adaptive_calls", "chebyshev.builds",
               "chebyshev.accept_ratio", "analysis.model_samples", "spans")


def _traced_counters(wl):
    rec = tracer.Recorder()
    tally = run.Tally()
    res = run.run_pass(wl, tally, rec)
    assert tally.failed == 0, tally.failures
    layers = tracer.layer_summary(rec.spans)
    return res["counters"], {k: layers[k] for k in TIMING_FREE}, rec.absent


@pytest.fixture(params=run.BENCH_WORKLOADS)
def workload(request):
    wl = scenarios.build(request.param, scenarios.DEFAULT_SEED,
                         run.OUT / f"test-{os.getpid()}-{request.param}")
    yield wl
    shutil.rmtree(wl.workdir, ignore_errors=True)


def test_counters_repeat_exactly(workload):
    first = _traced_counters(workload)
    second = _traced_counters(workload)
    assert first == second
    counters, _, absent = first
    assert absent == []
    if workload.name == "peak-train":
        d = counters["item7_density"]
        assert (d["panels"], d["refinement_rounds"]) == (1358, 0)
    if workload.name == "figure-cli":
        q = counters["quickstart"]
        assert (q["panels"], q["refinement_rounds"]) == (157, 7)


def test_other_seed_moves_inputs_slightly():
    assert scenarios.perturbation(scenarios.DEFAULT_SEED) == (1.0, 1.0)
    for seed in (1, 2, 99):
        fp, fr = scenarios.perturbation(seed)
        assert 0.995 <= fp <= 1.005 and 0.995 <= fr <= 1.005
        assert (fp, fr) != (1.0, 1.0)
        assert scenarios.perturbation(seed) == (fp, fr)


def test_self_time_subtracts_direct_children():
    spans = [["op.x", "op", 0.0, 10.0, -1, 0],
             ["cli.main", "cli", 1.0, 9.0, 0, 0],
             ["cli.arrival_density", "wavepacket", 2.0, 7.0, 1, 30],
             ["wavepacket.detection_amplitude_scan", "scattering", 3.0, 4.0, 2, 60]]
    s = tracer.layer_summary(spans)
    assert s["self_s"] == {"op": 2.0, "cli": 3.0, "wavepacket": 4.0, "scattering": 1.0}
    assert s["scattering.momenta"] == 60
    assert s["scattering.momenta_per_node"] == 2.0


def test_absent_target_is_reported_not_raised(monkeypatch):
    monkeypatch.setattr(tracer, "TARGETS", tracer.TARGETS + [
        ("tunnelkit._deleted_module", "f", "deleted", None),
        ("tunnelkit.wavepacket", "no_such_function", "wavepacket", None)])
    rec = tracer.Recorder()
    rec.install()
    rec.uninstall()
    assert rec.absent == ["deleted_module.f", "wavepacket.no_such_function"]


def test_install_then_uninstall_restores_the_package():
    from tunnelkit import cli, wavepacket

    before = (cli.main, wavepacket.detection_amplitude_scan,
              wavepacket.ArrivalDistribution.write_csv)
    rec = tracer.Recorder()
    rec.install()
    assert cli.main is not before[0]
    rec.uninstall()
    assert (cli.main, wavepacket.detection_amplitude_scan,
            wavepacket.ArrivalDistribution.write_csv) == before


def test_fails_without_the_package_sources():
    bare = run.OUT / f"bare-{os.getpid()}"
    try:
        shutil.copytree(run.HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "scans", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)


def test_metrics_match_benchmark_json():
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        spec = json.load(f)
    assert [w["name"] for w in spec["workloads"]] == list(run.BENCH_WORKLOADS)
    plain = [{"wall_s": 1.0, "op_s": {}, "counters": {}}]
    traced = [dict(plain[0], layers=tracer.layer_summary([]))]
    names = [n for w in run.BENCH_WORKLOADS for n in scenarios.OP_NAMES[w]]
    layers = run.per_layer(plain, traced, [], names)
    e2e = run.end_to_end(plain, [0.5])
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        {k: unit for k, (_, unit) in layers.items()}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        {k: unit for k, (_, unit) in e2e.items()}
