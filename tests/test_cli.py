"""CLI: schema validation, artifacts, determinism, manifest, exit codes."""

from __future__ import annotations

import copy
import importlib
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from tunnelkit import (DetectorSpec, PhysicsDomainError, PotentialProfile, _quadrature, cli,
                       decay_rate, double_barrier_report, find_resonances,
                       piecewise_amplitudes)
from tunnelkit.cli import main
from tunnelkit.errors import ConfigError, warn_regime


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def _small_double():
    # fast double-barrier scenario shared by several tasks
    v0, a, r, m = 0.4, 2.5, 120.0, 1.0
    rep = double_barrier_report(0.35, v0, a, r, m)
    vp = 0.35 / math.hypot(0.35, m)
    sigma_x = vp * rep.dt / 8.0
    return {
        "barrier": {"mass": m, "segments": [{"v": v0, "w": a},
                                            {"v": 0.0, "w": r},
                                            {"v": v0, "w": a}]},
        "packet": {"shape": "gaussian", "p": 0.35,
                   "sigma_p": 1.0 / (2 * sigma_x), "x0": 5 * sigma_x},
        "detector": {"position": 11.0 * (2 * a + r)},
    }


def _readme_config():
    """The config object of the README's JSON block."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    return json.loads(re.search(r"```json\n(.*?)```", readme, re.S).group(1))


def _opaque_wall():
    # a double barrier whose |T0p| underflows to 0 at the packet momentum
    return {
        "barrier": {"mass": 1.0, "segments": [{"v": 0.9, "w": 1000.0},
                                              {"v": 0.0, "w": 300.0},
                                              {"v": 0.9, "w": 1000.0}]},
        "packet": {"shape": "gaussian", "p": 0.35, "sigma_p": 0.004, "x0": 700.0},
        "detector": {"position": 30000.0},
    }


def _resonance_double(**task):
    # a Lorentzian packet on the first resonance of (0.4, 2.5, 400) in (0.3, 0.4)
    v0, a, r, m = 0.4, 2.5, 400.0, 1.0
    k0 = float(find_resonances(v0, a, r, m, k_window=(0.3, 0.4))[0])
    sigma_p = 4.0 * decay_rate(k0, v0, a, r, m) / (k0 / math.hypot(k0, m))
    return {
        "barrier": {"mass": m, "segments": [{"v": v0, "w": a},
                                            {"v": 0.0, "w": r},
                                            {"v": v0, "w": a}]},
        "packet": {"shape": "lorentzian", "p": k0, "sigma_p": sigma_p,
                   "x0": 5.0 / (math.sqrt(2) * sigma_p)},
        "detector": {"position": 10.0 * (2 * a + r)},
        "task": {"kind": "regime-compare", "regime": "resonance",
                 "n_t": 600, "decay_spans": 2.0, "rel_tol": 1e-6, **task},
    }


# the sections of a config each task kind reads, where that is not all three;
# any other section is an unknown field
_KIND_SECTIONS = {"transmission-scan": ("barrier",), "tunneling-time-scan": (),
                  "resonance-scan": ("barrier",)}


def _sections(kind):
    """The sections of _small_double that task kind ``kind`` reads."""
    base = _small_double()
    return {key: base[key] for key in _KIND_SECTIONS.get(kind, base)}


def _scan(tmp_path, n_k):
    """Config path of a transmission scan of n_k rows over a resonant double.
    On [0.2, 0.9], (n_k - 1) * step + k_min misses k_max for every n_k below,
    so the last row also checks that the scan ends on k_max as np.linspace does."""
    return _write(tmp_path, "c.json", {
        "name": "scan", "barrier": _small_double()["barrier"],
        "task": {"kind": "transmission-scan", "k_min": 0.2, "k_max": 0.9, "n_k": n_k},
        "output": {"dir": str(tmp_path / "out")},
    })


def _summary(path):
    return dict(line.split(",") for line in path.read_text().splitlines()[1:])


# a valid config of each task kind, for the input-rule cases below
_KIND_TASKS = {
    "transmission-scan": {"k_min": 0.1, "k_max": 0.6},
    "arrival-density": {"n_t": 64},
    "tunneling-time-scan": {"d": 5.0, "v0_values": [0.5]},
    "resonance-scan": {},
    "decay-fit": {},
    "regime-compare": {"regime": "peaks"},
}
_TABLE = {"k": [0.2, 0.3, 0.5], "alpha": [0.5, 0.7, 0.9]}


def _case(keys, value, path, kind="regime-compare", task=None):
    task = task or {"kind": kind, **_KIND_TASKS[kind]}
    return pytest.param(keys, value, path, task, id=f"{task['kind']}:{path}={value!r}"[:80])


# one case per input rule: the constructors' domain rules (through the CLI),
# the CLI's JSON type and finiteness checks, and unknown fields
_INPUT_RULES = [
    _case(("barrier", "mass"), 0.0, "barrier.mass"),
    _case(("barrier", "segments", 0, "v"), -0.1, "barrier.segments[0].v"),
    _case(("barrier", "segments", 1, "w"), 0.0, "barrier.segments[1].w"),
    _case(("barrier", "segments", 2, "v"), 1.0, "barrier.segments[2].v"),  # v = mass
    _case(("packet", "shape"), "boxcar", "packet.shape"),
    _case(("packet", "p"), -0.35, "packet.p"),
    _case(("packet", "sigma_p"), 0.0, "packet.sigma_p"),
    _case(("packet", "x0"), -1.0, "packet.x0"),
    _case(("packet", "sigma_p"), 0.2, "packet.sigma_p"),  # >= p/3
    _case(("detector", "position"), 0.0, "detector.position"),
    _case(("detector", "absorption"), -0.5, "detector.absorption"),
    _case(("detector", "absorption"), 1.5, "detector.absorption"),
    _case(("detector", "absorption"), {"k": [0.2, 0.3, 0.5], "alpha": [0.5, 0.7]},
          "detector.absorption"),  # ragged
    _case(("detector", "absorption"), {"k": [0.2], "alpha": [0.5]}, "detector.absorption"),
    _case(("detector", "absorption", "k"), [0.5, 0.3, 0.2], "detector.absorption"),
    _case(("detector", "absorption", "alpha"), [0.5, 1.7, 0.9], "detector.absorption"),
    _case(("detector", "absorption", "alpha"), [0.5, -0.1, 0.9], "detector.absorption"),
    _case(("detector", "absorption", "k"), [0.2, math.nan, 0.5], "detector.absorption.k[1]"),
    _case(("detector", "absorption", "alpha"), [0.5, 0.7, math.nan],
          "detector.absorption.alpha[2]"),
    _case(("detector", "absorption", "alpha"), "0.5", "detector.absorption"),
    _case(("detecter",), {"position": 1500.0}, "detecter"),
    _case(("barrier", "masss"), 1.0, "barrier.masss"),
    _case(("barrier", "segments", 1, "h"), 0.0, "barrier.segments[1].h"),
    _case(("packet", "sigmap"), 0.01, "packet.sigmap"),
    _case(("detector", "pos"), 1500.0, "detector.pos"),
    _case(("detector", "absorption", "beta"), [0.1], "detector.absorption.beta"),
    _case(("output", "directory"), "out", "output.directory"),
    _case(("output", "dir"), 5, "output.dir"),
    # only a missing or null output means the default
    *(_case(("output",), value, "output") for value in (0, False, "", [])),
    _case(("task", "reltol"), 1e-6, "task.reltol"),
    # only the kinds that integrate read rel_tol
    *(_case(("task", "rel_tol"), 1e-6, "task.rel_tol", kind) for kind in (
        "transmission-scan", "tunneling-time-scan", "resonance-scan")),
    _case(("task", "gamma"), 1e-3, "task.gamma"),
    _case(("task", "n_k"), 1, "task.n_k", "transmission-scan"),
    # a section the task kind does not read
    _case(("detector",), {"position": 50.0}, "detector", "transmission-scan"),
    _case(("barrier",), {"mass": 2.0, "segments": [{"v": 0.5, "w": 5.0}]}, "barrier",
          "tunneling-time-scan"),
    *(_case(("task", field), 1.0, f"task.{field}", kind) for kind, field in (
        ("transmission-scan", "n_t"), ("arrival-density", "span_sigma"),
        ("tunneling-time-scan", "v0"), ("resonance-scan", "n_k"), ("decay-fit", "n_t"))),
    # an explicit window leaves span_sigmas unread
    _case(("task", "span_sigmas"), 8.0, "task.span_sigmas",
          task={"kind": "arrival-density", "t_min": 8000.0, "t_max": 9000.0}),
    # a regime-compare field of another regime: n_peaks is read only for
    # peaks, decay_spans for continuum and resonance, k0 and
    # substitute_lorentzian for resonance
    *(_case(("task", field), value, f"task.{field}") for field, value in (
        ("k0", 0.5), ("substitute_lorentzian", False), ("decay_spans", 9.0))),
    *(_case(("task", field), value, f"task.{field}",
            task={"kind": "regime-compare", "regime": "continuum"})
      for field, value in (("n_peaks", 99), ("k0", 0.3))),
    # each height writes its own CSV, which a repeat would overwrite
    _case(("task", "v0_values"), [0.5, 0.5, 0.2], "task.v0_values[1]", "tunneling-time-scan"),
]


class TestValidate:
    def test_ok(self, tmp_path, capsys):
        cfg = _write(tmp_path, "c.json", {
            "name": "demo",
            "barrier": {"mass": 1.0, "segments": [{"v": 0.5, "w": 5.0}]},
            "task": {"kind": "transmission-scan", "k_min": 0.1, "k_max": 0.6},
        })
        assert main(["validate", cfg]) == 0
        assert "demo" in capsys.readouterr().out

    def test_negative_width_names_field(self, tmp_path, capsys):
        cfg = _write(tmp_path, "c.json", {
            "name": "bad",
            "barrier": {"mass": 1.0, "segments": [{"v": 0.5, "w": -2.0}]},
            "task": {"kind": "transmission-scan", "k_min": 0.1, "k_max": 0.6},
        })
        assert main(["validate", cfg]) == 1
        assert "barrier.segments[0].w" in capsys.readouterr().err

    def test_unknown_task(self, tmp_path, capsys):
        cfg = _write(tmp_path, "c.json", {"name": "x", "task": {"kind": "plot"}})
        assert main(["validate", cfg]) == 1
        assert "task.kind" in capsys.readouterr().err

    def test_missing_required_section(self, tmp_path, capsys):
        cfg = _write(tmp_path, "c.json", {
            "name": "x",
            "task": {"kind": "arrival-density", "n_t": 32}})
        assert main(["validate", cfg]) == 1

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text("{not json", encoding="utf-8")
        assert main(["validate", str(path)]) == 1

    def test_config_that_is_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_bytes('{"name": "caf\u00e9"}'.encode("latin-1"))
        assert main(["validate", str(path)]) == 1
        assert capsys.readouterr().err.startswith(f"config error: {path}: invalid JSON")

    def test_benchmark_configs_validate(self, tmp_path, monkeypatch):
        # every CLI config of the benchmark passes validate, so a newly
        # rejected field cannot break the benchmark unnoticed
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
        scenarios = importlib.import_module("scenarios")
        for build in (scenarios.figure_cli, scenarios.scans, scenarios.opaque):
            build(tmp_path, 0)
        configs = sorted(tmp_path.glob("*.json"))
        assert len(configs) == 10
        for cfg in configs:
            assert main(["validate", str(cfg)]) == 0, cfg.name

    def test_tracer_targets_resolve(self, monkeypatch):
        # every function the benchmark tracer wraps exists, so dropping an
        # import it wraps fails here instead of blanking a layer metric; the
        # stale names are the six the benchmark still lists (ROADMAP item 6)
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
        rec = importlib.import_module("tracer").Recorder()
        try:
            rec.install()
        finally:
            rec.uninstall()
        assert set(rec.absent) <= {"cli._write_kv_csv", "cli.amplitude_scan",
                                   "quadrature.adaptive_complex_quad",
                                   "chebyshev.build_verified",
                                   "chebyshev.ChebyshevTable.__call__",
                                   "analysis.erfc_complex_array"}

    def test_near_field_detector_is_config_error(self, tmp_path, capsys):
        cfg = _write(tmp_path, "c.json", {
            "name": "near",
            "barrier": {"mass": 1.0, "segments": [{"v": 0.5, "w": 10.0}]},
            "packet": {"shape": "gaussian", "p": 0.3, "sigma_p": 0.01, "x0": 50.0},
            "detector": {"position": 50.0},
            "task": {"kind": "arrival-density", "n_t": 32},
        })
        assert main(["validate", cfg]) == 1
        # validate prints DetectorSpec.check_far_field's own message
        with pytest.raises(PhysicsDomainError) as exc:
            DetectorSpec(position=50.0).check_far_field(PotentialProfile.square(1.0, 0.5, 10.0))
        assert capsys.readouterr().err == f"config error: detector.position: {exc.value}\n"

    @pytest.mark.parametrize("command", ["validate", "run"])
    @pytest.mark.parametrize("task, absorption, path", [
        pytest.param({"regime": "peaks", "n_peaks": "ten"}, None, "task.n_peaks",
                     id="n_peaks-ten"),
        pytest.param({"regime": "resonance", "k0": "abc"}, None, "task.k0", id="k0-abc"),
        pytest.param({"regime": "resonance", "decay_spans": -2.0}, None, "task.decay_spans",
                     id="decay_spans--2.0"),
        pytest.param({"regime": "peaks"}, {"k": ["x", 0.5], "alpha": [1.0, 1.0]},
                     "detector.absorption.k[0]", id="absorption-text"),
        pytest.param({"regime": "peaks"}, {"k": [0.2, 0.5], "alpha": [1.0, math.nan]},
                     "detector.absorption.alpha[1]", id="absorption-nan"),
        pytest.param({"kind": "resonance-scan", "k_min": 0.3, "k_max": 2.0}, None, "task.k_max",
                     id="resonance-window"),
        pytest.param({"regime": "peaks", "rel_tol": 1e-30}, None, "task.rel_tol",
                     id="rel_tol-1e-30"),
        pytest.param({"kind": "decay-fit", "rel_tol": 1e-16}, None, "task.rel_tol",
                     id="rel_tol-1e-16"),
        pytest.param({"kind": "arrival-density", "t_min": 0.0, "t_max": 1e300}, None,
                     "task.t_max", id="window-1e300"),
        pytest.param({"kind": "arrival-density", "t_min": 0.0, "t_max": 1e9}, None,
                     "task.t_max", id="window-1e9"),
    ])
    def test_config_error_names_field(self, tmp_path, capsys, command, task, absorption, path):
        base = _sections(task.get("kind", "regime-compare"))
        if absorption is not None:
            base["detector"]["absorption"] = absorption
        # json.dumps writes math.nan as the NaN literal that json.load accepts
        cfg = _write(tmp_path, "c.json", {
            "name": "badfield", **base, "task": {"kind": "regime-compare", **task},
            "output": {"dir": str(tmp_path / "out")},
        })
        assert main([command, cfg]) == 1
        assert path in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["validate", "run"])
    @pytest.mark.parametrize("regime, shape", [("continuum", "lorentzian"),
                                               ("resonance", "gaussian")])
    def test_regime_needs_its_packet_shape(self, tmp_path, capsys, command, regime, shape):
        # each closed form holds for one packet shape only; the pair is
        # rejected before any run, not by the runner with exit 2
        base = _small_double()
        base["packet"]["shape"] = shape
        cfg = _write(tmp_path, "c.json", {
            "name": "badpair", **base, "task": {"kind": "regime-compare", "regime": regime},
            "output": {"dir": str(tmp_path / "out")},
        })
        assert main([command, cfg]) == 1
        assert "packet.shape" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["validate", "run"])
    @pytest.mark.parametrize("regime, shape", [("continuum", "gaussian"),
                                               ("resonance", "lorentzian")])
    def test_decay_window_too_short_to_fit_is_config_error(self, tmp_path, capsys, command,
                                                           regime, shape):
        # 1 of 16 times lies in the fit window of 1e-6 decay times, and the
        # decay fit needs 10: rejected before any run, not by the fit with exit 2
        cfg = {**_readme_config(), "output": {"dir": str(tmp_path / "out")},
               "task": {"kind": "regime-compare", "regime": regime, "n_t": 16,
                        "decay_spans": 1e-6}}
        cfg["packet"]["shape"] = shape
        assert main([command, _write(tmp_path, "c.json", cfg)]) == 1
        err = capsys.readouterr().err
        assert "task.decay_spans" in err and "1 lie there" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("regime, shape", [("continuum", "gaussian"),
                                               ("resonance", "lorentzian")])
    def test_default_decay_spans_fit_at_the_fewest_times(self, tmp_path, regime, shape):
        cfg = {**_readme_config(),
               "task": {"kind": "regime-compare", "regime": regime, "n_t": 16}}
        cfg["packet"]["shape"] = shape
        assert main(["validate", _write(tmp_path, "c.json", cfg)]) == 0

    @pytest.mark.parametrize("command", ["validate", "run"])
    @pytest.mark.parametrize("regime, shape, w", [("continuum", "gaussian", 500.0),
                                                  ("continuum", "gaussian", 1000.0),
                                                  ("resonance", "lorentzian", 1000.0)])
    def test_zero_escape_rate_is_config_error(self, tmp_path, capsys, command, regime,
                                              shape, w):
        # |T0|^2 underflows on these walls, so the escape rate is exactly 0 and
        # there is no decay to fit; dividing decay_spans by it gave a nan time
        # grid, which passed the window count and failed the run with exit 2
        cfg = {"name": "wall", **_opaque_wall(), "output": {"dir": str(tmp_path / "out")},
               "task": {"kind": "regime-compare", "regime": regime}}
        for wall in (0, 2):
            cfg["barrier"]["segments"][wall]["w"] = w
        cfg["packet"]["shape"] = shape
        if regime == "resonance":
            cfg["task"]["k0"] = 0.35
        assert main([command, _write(tmp_path, "c.json", cfg)]) == 1
        err = capsys.readouterr().err
        assert "task.regime" in err and "peaks regime applies" in err
        assert not (tmp_path / "out").exists()
        with warnings.catch_warnings(record=True) as recorded:
            warnings.simplefilter("always")
            with pytest.raises(ConfigError, match="escape rate"):
                cli.parse_scenario(cfg)
        assert not [x for x in recorded if issubclass(x.category, RuntimeWarning)]

    @pytest.mark.parametrize("keys, value, path, task", _INPUT_RULES)
    def test_input_rule_names_its_field(self, tmp_path, capsys, keys, value, path, task):
        cfg = {"name": "rule", **_sections(task["kind"]), "task": dict(task),
               "output": {"dir": str(tmp_path / "out")}}
        if "detector" in cfg:
            cfg["detector"]["absorption"] = copy.deepcopy(_TABLE)
        assert main(["validate", _write(tmp_path, "c.json", cfg)]) == 0
        target = cfg
        for key in keys[:-1]:
            target = target[key]
        target[keys[-1]] = value
        assert main(["validate", _write(tmp_path, "c.json", cfg)]) == 1
        assert f"config error: {path}: " in capsys.readouterr().err

    def test_non_boolean_substitute_lorentzian(self, tmp_path, capsys):
        cfg = _write(tmp_path, "c.json", {"name": "flag",
                                          **_resonance_double(substitute_lorentzian="no")})
        assert main(["validate", cfg]) == 1
        assert "task.substitute_lorentzian" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["validate", "run"])
    @pytest.mark.parametrize("name", ["../escaped", "sub/scan", "sub\\scan"])
    def test_name_with_a_path_separator(self, tmp_path, capsys, command, name):
        # the name prefixes every artifact, which must stay inside the output dir
        out = tmp_path / "out"
        cfg = _write(tmp_path, "c.json", {
            "name": name, **_sections("transmission-scan"),
            "task": {"kind": "transmission-scan", "k_min": 0.1, "k_max": 0.6, "n_k": 4}})
        assert main([command, cfg, *(["--out", str(out)] if command == "run" else [])]) == 1
        assert "config error: name: " in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json"]

    @pytest.mark.parametrize("command", ["validate", "run"])
    @pytest.mark.parametrize("field", ["name", "output.dir"])
    def test_nul_character_in_name_or_output_dir(self, tmp_path, capsys, command, field):
        # a NUL would reach the file system as an embedded null byte
        cfg = {"name": "scan", **_sections("transmission-scan"),
               "task": {"kind": "transmission-scan", "k_min": 0.1, "k_max": 0.6, "n_k": 4},
               "output": {"dir": str(tmp_path / "out")}}
        if field == "name":
            cfg["name"] = "sc\0an"
        else:
            cfg["output"]["dir"] = str(tmp_path / "o\0ut")
        assert main([command, _write(tmp_path, "c.json", cfg)]) == 1
        assert f"config error: {field}: " in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json"]

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_resonance_regime_without_resonances(self, tmp_path, capsys, command):
        # the (0.4, 0.5, 1.0) double has no resonance in its tunneling window,
        # so a run without k0 has none to take; with k0 it is a valid config
        cfg = {"name": "nores",
               "barrier": {"mass": 1.0, "segments": [{"v": 0.4, "w": 0.5}, {"v": 0.0, "w": 1.0},
                                                     {"v": 0.4, "w": 0.5}]},
               "packet": {"shape": "lorentzian", "p": 0.5, "sigma_p": 0.01, "x0": 500.0},
               "detector": {"position": 200.0},
               "task": {"kind": "regime-compare", "regime": "resonance", "k0": 0.5},
               "output": {"dir": str(tmp_path / "out")}}
        assert main(["validate", _write(tmp_path, "c.json", cfg)]) == 0
        del cfg["task"]["k0"]
        assert main([command, _write(tmp_path, "c.json", cfg)]) == 1
        assert capsys.readouterr().err.endswith(
            "config error: task.k0: no resonances inside the tunneling window\n")
        assert not (tmp_path / "out").exists()

    def test_readme_config_validates(self, tmp_path):
        # the documented schema and the parser cannot drift apart unnoticed
        assert main(["validate", _write(tmp_path, "c.json", _readme_config())]) == 0

    @pytest.mark.parametrize("task, section, key", [
        pytest.param({"kind": "regime-compare", "regime": "resonance"}, "task", "k0",
                     id="regime-compare:task.k0"),
        pytest.param({"kind": "decay-fit"}, "packet", "p", id="decay-fit:packet.p"),
        pytest.param({"kind": "regime-compare", "regime": "peaks"}, "packet", "p",
                     id="regime-compare:packet.p"),
    ])
    def test_momentum_past_window_edge(self, tmp_path, capsys, task, section, key):
        # the README double barrier's tunneling window ends at 0.9798; the
        # closed forms fail past it (exit 2), so validate rejects the config
        cfg = {**_readme_config(), "task": dict(task)}
        if task.get("regime") == "resonance":
            cfg["packet"]["shape"] = "lorentzian"
        cfg[section][key] = 0.35
        assert main(["validate", _write(tmp_path, "c.json", cfg)]) == 0
        cfg[section][key] = 1.2
        assert main(["validate", _write(tmp_path, "c.json", cfg)]) == 1
        edge = math.sqrt(2 * 0.4 + 0.4 ** 2)
        assert capsys.readouterr().err.endswith(
            f"config error: {section}.{key}: must lie below the tunneling-window edge {edge}\n")

    def test_readme_task_table_matches_the_tasks(self):
        # the README's task-kind table lists the kinds of cli._TASKS in order,
        # and gives each kind's rel_tol default, or none where it takes none
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        cli_section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
        rows = re.findall(r"^\| `([a-z-]+)` *\|(.*)$", cli_section, re.M)
        assert [kind for kind, _ in rows] == list(cli._TASKS)
        for kind, row in rows:
            default = cli._TASKS[kind].rel_tol
            tol = [float(x) for x in re.findall(r"`rel_tol` \(([^)]*)\)", row)]
            assert tol == ([] if default is None else [default]), kind

    @pytest.mark.filterwarnings("ignore::tunnelkit.RegimeWarning")
    def test_readme_quickstart_runs(self, capsys):
        # the documented library calls cannot drift from the package unnoticed
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        block = re.search(r"```python\n(.*?)```", readme, re.S).group(1)
        exec(compile(block, "README.md", "exec"), {})
        printed = [float(x) for x in capsys.readouterr().out.split()]
        assert printed and all(map(math.isfinite, printed))

    def test_missing_file_is_io_error(self, tmp_path):
        assert main(["validate", str(tmp_path / "nope.json")]) == 3


class TestRunTasks:
    def test_transmission_scan_schema(self, tmp_path):
        cfg = _write(tmp_path, "c.json", {
            "name": "scan",
            "barrier": {"mass": 1.0, "segments": [{"v": 0.5, "w": 5.0}]},
            "task": {"kind": "transmission-scan", "k_min": 0.05, "k_max": 1.1,
                     "n_k": 40},
            "output": {"dir": str(tmp_path / "out")},
        })
        assert main(["run", cfg]) == 0
        lines = (tmp_path / "out" / "scan_transmission_scan.csv").read_text().splitlines()
        assert lines[0] == "k,TkRe,TkIm,RkRe,RkIm,absA2"
        assert len(lines) == 41
        k, tr, ti, rr, ri, a2 = map(float, lines[1].split(","))
        assert abs(tr * tr + ti * ti + rr * rr + ri * ri - 1.0) < 1e-10

    def test_opaque_transmission_scan(self, tmp_path):
        # lambda w ~ 1900: T underflows to 0 on every row, and the scan needs no phase
        cfg = _write(tmp_path, "c.json", {
            "name": "opaque",
            "barrier": {"mass": 1.0, "segments": [{"v": 0.9, "w": 2000.0}]},
            "task": {"kind": "transmission-scan", "k_min": 0.05, "k_max": 0.6, "n_k": 50},
            "output": {"dir": str(tmp_path / "out")},
        })
        assert main(["run", cfg]) == 0
        rows = np.loadtxt(tmp_path / "out" / "opaque_transmission_scan.csv",
                          delimiter=",", skiprows=1)
        assert rows.shape == (50, 6)
        assert np.all(rows[:, 1:3] == 0.0) and np.all(rows[:, 5] == 0.0)
        assert np.max(np.abs(rows[:, 3] ** 2 + rows[:, 4] ** 2 - 1.0)) < 1e-12

    @pytest.mark.parametrize("n_k", [2, cli._SCAN_BLOCK - 1, cli._SCAN_BLOCK,
                                     cli._SCAN_BLOCK + 1, 2 * cli._SCAN_BLOCK + 3])
    def test_transmission_scan_blocks_match_whole_grid(self, tmp_path, n_k):
        # the scan evaluates and writes one block of momenta at a time; its
        # bytes are those of one evaluation on the whole grid
        assert main(["run", _scan(tmp_path, n_k)]) == 0
        k = np.linspace(0.2, 0.9, n_k)
        prof = PotentialProfile(1.0, ((0.4, 2.5), (0.0, 120.0), (0.4, 2.5)))
        s = piecewise_amplitudes(prof, k)
        cols = (k, s.T.real, s.T.imag, s.R.real, s.R.imag, np.abs(s.A) ** 2)
        rows = zip(*(c.tolist() for c in cols))
        want = "k,TkRe,TkIm,RkRe,RkIm,absA2\n" + "".join(",".join(["%.17g"] * 6) % row + "\n"
                                                          for row in rows)
        assert (tmp_path / "out" / "scan_transmission_scan.csv").read_text() == want

    def test_transmission_scan_memory_is_bounded_by_the_block(self, tmp_path):
        # 5e4 rows: evaluated on the whole grid at once, the run peaked at
        # 8.9 MB of traced allocations; one block at a time it peaks at 2.4 MB
        cfg = _scan(tmp_path, 50000)
        tracemalloc.start()
        try:
            assert main(["run", cfg]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6

    def test_tunneling_time_scan(self, tmp_path):
        cfg = _write(tmp_path, "c.json", {
            "name": "fig1",
            "task": {"kind": "tunneling-time-scan", "mass": 1.0, "d": 5000.0,
                     "v0_values": [0.2, 0.5], "n_p": 40},
            "output": {"dir": str(tmp_path / "out")},
        })
        assert main(["run", cfg]) == 0
        for v0 in ("0.2", "0.5"):
            lines = (tmp_path / "out" / f"fig1_tunneling_time_V0_{v0}.csv")\
                .read_text().splitlines()
            assert lines[0] == "p,tau"
            taus = np.array([float(x.split(",")[1]) for x in lines[1:]])
            assert np.all(taus > 0.0)

    def test_resonance_scan(self, tmp_path):
        base = _small_double()
        cfg = _write(tmp_path, "c.json", {
            "name": "res", "barrier": base["barrier"],
            "task": {"kind": "resonance-scan", "k_min": 0.3, "k_max": 0.4},
            "output": {"dir": str(tmp_path / "out")},
        })
        assert main(["run", cfg]) == 0
        lines = (tmp_path / "out" / "res_resonance_scan.csv").read_text().splitlines()
        assert lines[0] == "n,k_n,absT"
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == find_resonances(0.4, 2.5, 120.0, 1.0,
                                            k_window=(0.3, 0.4)).size
        assert all(float(r[2]) > 1 - 1e-6 for r in rows)

    def test_resonance_scan_without_roots_writes_header(self, tmp_path):
        cfg = _write(tmp_path, "c.json", {
            "name": "res", "barrier": _small_double()["barrier"],
            "task": {"kind": "resonance-scan", "k_min": 0.30001, "k_max": 0.30002},
            "output": {"dir": str(tmp_path / "out")},
        })
        assert main(["run", cfg]) == 0
        assert (tmp_path / "out" / "res_resonance_scan.csv").read_text() == "n,k_n,absT\n"

    def test_arrival_density_with_sidecar(self, tmp_path):
        base = _small_double()
        cfg = _write(tmp_path, "c.json", {
            "name": "arr", **base,
            "task": {"kind": "arrival-density", "n_t": 128, "span_sigmas": 8.0,
                     "rel_tol": 1e-6},
            "output": {"dir": str(tmp_path / "out")},
        })
        assert main(["run", cfg]) == 0
        lines = (tmp_path / "out" / "arr_arrival_density.csv").read_text().splitlines()
        assert lines[0] == "t,P"
        sidecar = json.loads((tmp_path / "out" / "arr_arrival_density.json").read_text())
        assert "quadrature" in sidecar and "config" in sidecar
        # the 128-point linspace grid takes the factored kernel: 11 blocks of 12
        manifest = json.loads((tmp_path / "out" / "arr_manifest.json").read_text())
        assert sidecar["quadrature"]["time_blocks"] == [11, 12]
        assert manifest["diagnostics"]["quadrature"]["time_blocks"] == [11, 12]

    def test_readme_quickstart_panel_work_is_pinned(self, tmp_path):
        # pi pre-panels: 88 panels in 8 rounds, one bisection and then
        # quarterings (73 in 12 bisections alone, 157 in 7 at pi/4)
        cfg = _write(tmp_path, "c.json", {
            "name": "quickstart",
            "barrier": {"mass": 1.0, "segments": [{"v": 0.4, "w": 2.5},
                                                  {"v": 0.0, "w": 300.0},
                                                  {"v": 0.4, "w": 2.5}]},
            "packet": {"shape": "gaussian", "p": 0.35, "sigma_p": 0.004, "x0": 700.0},
            "detector": {"position": 3050.0},
            "task": {"kind": "arrival-density", "n_t": 1500, "span_sigmas": 10.0},
            "output": {"dir": str(tmp_path / "out")},
        })
        assert main(["run", cfg]) == 0
        manifest = json.loads((tmp_path / "out" / "quickstart_manifest.json").read_text())
        quad = manifest["diagnostics"]["quadrature"]
        assert set(quad) == {"panels", "refinement_rounds", "error_estimate", "time_blocks"}
        assert (quad["panels"], quad["refinement_rounds"]) == (88, 8)

    def test_readme_run_does_not_import_numpy_ma(self, tmp_path):
        # numpy.ma loads on the first np.unique of a process, about 13 ms and
        # 1.1 MB; a fresh run of the README config never needs it
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        code = ("import sys\nfrom tunnelkit.cli import main\n"
                "assert main(['run', sys.argv[1], '--out', sys.argv[2]]) == 0\n"
                "assert 'numpy.ma' not in sys.modules\n")
        res = subprocess.run([sys.executable, "-c", code,
                              _write(tmp_path, "c.json", _readme_config()),
                              str(tmp_path / "out")], env=env, capture_output=True, text=True)
        assert res.returncode == 0, res.stderr

    def test_decay_fit(self, tmp_path):
        # wider gap keeps wave-packet dispersion from biasing the peak fit
        v0, a, r, m = 0.4, 2.5, 3000.0, 1.0
        rep = double_barrier_report(0.35, v0, a, r, m)
        vp = 0.35 / math.hypot(0.35, m)
        sigma_x = vp * rep.dt / 8.0
        cfg = _write(tmp_path, "c.json", {
            "name": "fit",
            "barrier": {"mass": m, "segments": [{"v": v0, "w": a},
                                                {"v": 0.0, "w": r},
                                                {"v": v0, "w": a}]},
            "packet": {"shape": "gaussian", "p": 0.35,
                       "sigma_p": 1.0 / (2 * sigma_x), "x0": 5 * sigma_x},
            "detector": {"position": 11.0 * (2 * a + r)},
            "task": {"kind": "decay-fit", "n_peaks": 7, "samples_per_peak": 12,
                     "rel_tol": 1e-6},
            "output": {"dir": str(tmp_path / "out")},
        })
        assert main(["run", cfg]) == 0
        rows = dict(line.split(",") for line in
                    (tmp_path / "out" / "fit_decay_fit.csv").read_text()
                    .splitlines()[1:])
        gamma_fit = float(rows["gamma_fit"])
        gamma_formula = float(rows["gamma_formula"])
        assert abs(gamma_fit - gamma_formula) < 0.10 * gamma_formula
        assert float(rows["r2"]) > 0.99

    def test_free_arrival_density(self, tmp_path):
        cfg = _write(tmp_path, "c.json", {
            "name": "free",
            "packet": {"shape": "gaussian", "p": 0.3, "sigma_p": 0.003,
                       "x0": 900.0},
            "detector": {"position": 500.0},
            "task": {"kind": "arrival-density", "n_t": 96, "span_sigmas": 8.0},
            "output": {"dir": str(tmp_path / "out")},
        })
        assert main(["run", cfg]) == 0
        manifest = json.loads((tmp_path / "out" / "free_manifest.json").read_text())
        assert manifest["diagnostics"]["total_mass"] == pytest.approx(1.0, abs=1e-4)
        # no barrier is the empty profile, in units of the particle mass
        sidecar = json.loads((tmp_path / "out" / "free_arrival_density.json").read_text())
        assert sidecar["profile"] == {"mass": 1.0, "segments": []}

    def test_asymmetric_double_on_resonance(self, tmp_path):
        # the packet sits on a resonance 5.6e-7 wide in k, and the grid is
        # centred by theta' there
        cfg = _write(tmp_path, "c.json", {
            "name": "asym",
            "barrier": {"mass": 1.0, "segments": [{"v": 0.5, "w": 3.0},
                                                  {"v": 0.0, "w": 6000.0},
                                                  {"v": 0.5, "w": 3.1}]},
            "packet": {"shape": "gaussian", "p": 0.300457, "sigma_p": 1e-5,
                       "x0": 250000.0},
            "detector": {"position": 70000.0},
            "task": {"kind": "arrival-density", "n_t": 64, "span_sigmas": 10.0,
                     "rel_tol": 1e-6},
            "output": {"dir": str(tmp_path / "out")},
        })
        assert main(["run", cfg]) == 0
        data = np.loadtxt(tmp_path / "out" / "asym_arrival_density.csv",
                          delimiter=",", skiprows=1)
        assert np.all(np.isfinite(data)) and np.max(data[:, 1]) > 0.0

    def test_opaque_barrier_has_no_signal(self, tmp_path):
        # |A_k| underflows on the whole packet window: an exact zero density,
        # said in the manifest
        cfg = _write(tmp_path, "c.json", {
            "name": "opaque",
            "barrier": {"mass": 1.0, "segments": [{"v": 0.9, "w": 2000.0}]},
            "packet": {"shape": "gaussian", "p": 0.3, "sigma_p": 0.004, "x0": 700.0},
            "detector": {"position": 20000.0},
            "task": {"kind": "arrival-density", "n_t": 64, "span_sigmas": 10.0,
                     "rel_tol": 1e-6},
            "output": {"dir": str(tmp_path / "out")},
        })
        assert main(["run", cfg]) == 0
        data = np.loadtxt(tmp_path / "out" / "opaque_arrival_density.csv",
                          delimiter=",", skiprows=1)
        assert data.shape == (64, 2) and np.all(data[:, 1] == 0.0)
        manifest = json.loads((tmp_path / "out" / "opaque_manifest.json").read_text())
        assert "no_signal" in {w["code"] for w in manifest["warnings"]}

    def test_opaque_wall_peaks_run_has_no_signal(self, tmp_path):
        # |T0p| underflows on the wall (0.9, 1000, 300): both densities are
        # exactly 0, every rel_diff is finite (0) rather than 0/0, and
        # neither density has a peak time
        cfg = _write(tmp_path, "c.json", {
            "name": "wall", **_opaque_wall(),
            "task": {"kind": "regime-compare", "regime": "peaks"},
            "output": {"dir": str(tmp_path / "out")},
        })
        assert main(["run", cfg]) == 0
        data = np.loadtxt(tmp_path / "out" / "wall_regime_compare.csv",
                          delimiter=",", skiprows=1)
        assert np.all(data[:, 1:3] == 0.0) and np.all(np.isfinite(data[:, 3]))
        rows = _summary(tmp_path / "out" / "wall_regime_summary.csv")
        assert rows["t0_direct"] == rows["t0_model"] == "nan"
        manifest = json.loads((tmp_path / "out" / "wall_manifest.json").read_text())
        assert "no_signal" in {w["code"] for w in manifest["warnings"]}

    def test_opaque_wall_decay_fit_finds_no_peaks(self, tmp_path, capsys):
        # the escape rate at p is exactly 0, so the train has no peaks to fit:
        # rejected before any run, not by the peak search with exit 2
        cfg = _write(tmp_path, "c.json", {
            "name": "wall", **_opaque_wall(), "task": {"kind": "decay-fit"},
            "output": {"dir": str(tmp_path / "out")},
        })
        for command in ("validate", "run"):
            assert main([command, cfg]) == 1
            assert "packet.p" in capsys.readouterr().err
            assert not (tmp_path / "out").exists()

    def test_regime_compare_continuum_offregime_warns(self, tmp_path):
        # sigma_p v_p dt ~ 4 is outside the continuum regime: the comparison
        # must still be emitted and the warning must land in the manifest
        base = _small_double()
        cfg = _write(tmp_path, "c.json", {
            "name": "offreg", **base,
            "task": {"kind": "regime-compare", "regime": "continuum",
                     "n_t": 400, "decay_spans": 1.0, "rel_tol": 1e-6},
            "output": {"dir": str(tmp_path / "out")},
        })
        assert main(["run", cfg]) == 0
        assert (tmp_path / "out" / "offreg_regime_compare.csv").exists()
        manifest = json.loads((tmp_path / "out" / "offreg_manifest.json").read_text())
        assert "continuum_regime" in {w["code"] for w in manifest["warnings"]}

    def test_regime_compare_continuum_narrow_packet(self, tmp_path):
        # sigma_p v_p dt ~ 0.012: the closed form's exponential factor alone
        # overflows on this grid; the run must still succeed
        cfg = _write(tmp_path, "c.json", {
            "name": "narrow",
            "barrier": {"mass": 1.0, "segments": [{"v": 0.5, "w": 1.0},
                                                  {"v": 0.0, "w": 300.0},
                                                  {"v": 0.5, "w": 1.0}]},
            "packet": {"shape": "gaussian", "p": 0.3, "sigma_p": 2e-5, "x0": 125000.0},
            "detector": {"position": 3020.0},
            "task": {"kind": "regime-compare", "regime": "continuum", "n_t": 1500},
            "output": {"dir": str(tmp_path / "out")},
        })
        assert main(["run", cfg]) == 0
        data = np.loadtxt(tmp_path / "out" / "narrow_regime_compare.csv",
                          delimiter=",", skiprows=1)
        assert data.shape == (1500, 4)
        assert np.all(np.isfinite(data[:, 2]))

    def test_regime_compare_resonance(self, tmp_path):
        cfg = _write(tmp_path, "c.json", {"name": "resc", **_resonance_double(),
                                          "output": {"dir": str(tmp_path / "out")}})
        assert main(["run", cfg]) == 0
        summary = _summary(tmp_path / "out" / "resc_regime_summary.csv")
        assert float(summary["gamma_model"]) == pytest.approx(
            float(summary["gamma_direct"]), rel=0.05)

    def test_regime_compare_resonance_with_the_true_amplitude(self, tmp_path):
        # substitute_lorentzian false: the direct quadrature keeps the
        # profile's A_k, so only P_direct and its rate move
        for sub in (True, False):
            cfg = _write(tmp_path, "c.json", {
                "name": "resc", **_resonance_double(substitute_lorentzian=sub),
                "output": {"dir": str(tmp_path / str(sub))}})
            assert main(["run", cfg]) == 0
        model = [np.loadtxt(tmp_path / str(sub) / "resc_regime_compare.csv", delimiter=",",
                            skiprows=1, dtype=str)[:, 2] for sub in (True, False)]
        assert np.array_equal(*model)
        gammas = [float(_summary(tmp_path / str(sub) / "resc_regime_summary.csv")
                        ["gamma_direct"]) for sub in (True, False)]
        assert abs(gammas[1] - gammas[0]) > 0.01 * gammas[0]

    def test_regime_compare_peaks(self, tmp_path):
        base = _small_double()
        cfg = _write(tmp_path, "c.json", {
            "name": "cmp", **base,
            "task": {"kind": "regime-compare", "regime": "peaks", "n_peaks": 6,
                     "n_t": 600, "rel_tol": 1e-6},
            "output": {"dir": str(tmp_path / "out")},
        })
        assert main(["run", cfg]) == 0
        ts = (tmp_path / "out" / "cmp_regime_compare.csv").read_text().splitlines()
        assert ts[0] == "t,P_direct,P_model,rel_diff"
        summary = dict(line.split(",") for line in
                       (tmp_path / "out" / "cmp_regime_summary.csv").read_text()
                       .splitlines()[1:])
        assert "gamma_direct" in summary and "gamma_model" in summary


# a run of each task kind, and the label column of each key-value CSV it writes
_CSV_RUNS = {
    "transmission-scan": ({"k_min": 1e-300, "k_max": 0.9, "n_k": 40}, {}),
    "arrival-density": ({"n_t": 64, "rel_tol": 1e-6}, {}),
    "tunneling-time-scan": ({"d": 5.0, "v0_values": [0.5]}, {}),
    "resonance-scan": ({"k_min": 0.3, "k_max": 0.4}, {}),
    "decay-fit": ({"rel_tol": 1e-6},
                  {"decay_fit.csv": ["t0", "dt", "gamma_fit", "gamma_formula", "r2"]}),
    "regime-compare": ({"regime": "peaks", "n_peaks": 6, "n_t": 600, "rel_tol": 1e-6},
                       {"regime_summary.csv": [
                           "t0_formula", "dt_formula", "gamma_formula", "t0_direct", "t0_model",
                           "dt_direct", "gamma_direct", "r2_direct",
                           "dt_model", "gamma_model", "r2_model"]}),
}


class TestCsvFields:
    def _run(self, tmp_path, kind):
        """The rows of each CSV of a run of ``kind``, split into fields, with the
        label column of a key-value CSV checked and dropped."""
        task, labels = _CSV_RUNS[kind]
        cfg = _write(tmp_path, "c.json", {"name": "r", **_sections(kind),
                                          "task": {"kind": kind, **task},
                                          "output": {"dir": str(tmp_path / "out")}})
        assert main(["run", cfg]) == 0
        out = {}
        for path in sorted((tmp_path / "out").glob("*.csv")):
            rows = [line.split(",") for line in
                    path.read_text(encoding="utf-8").splitlines()[1:]]
            want = labels.get(path.name.removeprefix("r_"))
            if want is not None:
                assert [row.pop(0) for row in rows] == want
            out[path.name] = rows
        return out

    @pytest.mark.parametrize("kind", list(_CSV_RUNS))
    def test_every_number_reads_back_as_written(self, tmp_path, kind):
        # each field s is '%.17g' % v of the value v it parses to
        for name, rows in self._run(tmp_path, kind).items():
            assert rows, name
            for row in rows:
                assert ["%.17g" % float(s) for s in row] == row, name

    def test_int_column_of_resonance_scan(self, tmp_path):
        rows = self._run(tmp_path, "resonance-scan")["r_resonance_scan.csv"]
        assert [row[0] for row in rows] == [str(n) for n in range(len(rows))]

    def test_transmission_scan_from_1e_300(self, tmp_path):
        # -0 is the vectorized path's zero; the three values below 1e-270 are
        # formatted by Python
        first = self._run(tmp_path, "transmission-scan")["r_transmission_scan.csv"][0]
        assert first[:2] == ["1e-300", "-0"]
        assert sum(0.0 < abs(float(s)) < 1e-270 for s in first) == 3


class TestManifestAndDeterminism:
    def test_one_process_matches_fresh_calls(self, tmp_path):
        # main builds its parser once per process: validate, run and a failing
        # validate in one process give the exit codes and files of fresh processes
        good = _write(tmp_path, "good.json", _readme_config())
        bad = _write(tmp_path, "bad.json", {**_readme_config(), "task": {"kind": "nope"}})
        calls = [["validate", good], ["run", good, "--out", "{out}"], ["validate", bad]]
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        code = "import sys\nfrom tunnelkit.cli import main\nsys.exit(main(sys.argv[1:]))\n"
        fresh = [subprocess.run([sys.executable, "-c", code,
                                 *(a.format(out=tmp_path / "fresh") for a in argv)],
                                env=env, capture_output=True).returncode for argv in calls]
        same = [main([a.format(out=tmp_path / "same") for a in argv]) for argv in calls]
        assert same == fresh == [0, 0, 1]

        def outputs(d):
            files = {}
            for path in sorted(d.iterdir()):
                if path.name.endswith("_manifest.json"):
                    manifest = json.loads(path.read_text(encoding="utf-8"))
                    manifest.pop("timings")
                    files[path.name] = json.dumps(manifest).replace(str(d), "<out>")
                else:
                    files[path.name] = path.read_bytes()
            return files
        assert outputs(tmp_path / "same") == outputs(tmp_path / "fresh")

    def test_byte_identical_reruns(self, tmp_path):
        base = _small_double()
        for sub in ("a", "b"):
            cfg = _write(tmp_path, f"{sub}.json", {
                "name": "det", **base,
                "task": {"kind": "arrival-density", "n_t": 96, "span_sigmas": 6.0,
                         "rel_tol": 1e-6},
                "output": {"dir": str(tmp_path / sub)},
            })
            assert main(["run", cfg]) == 0
        csv_a = (tmp_path / "a" / "det_arrival_density.csv").read_bytes()
        csv_b = (tmp_path / "b" / "det_arrival_density.csv").read_bytes()
        assert csv_a == csv_b

    def test_warnings_reach_manifest(self, tmp_path):
        base = _small_double()
        base["detector"]["position"] = 15.0 * 125.0  # below 50 d: marginal far field
        cfg = _write(tmp_path, "c.json", {
            "name": "warn", **base,
            "task": {"kind": "arrival-density", "n_t": 64, "span_sigmas": 4.0,
                     "rel_tol": 1e-6},
            "output": {"dir": str(tmp_path / "out")},
        })
        assert main(["run", cfg]) == 0
        manifest = json.loads((tmp_path / "out" / "warn_manifest.json").read_text())
        codes = {w["code"] for w in manifest["warnings"]}
        assert "far_field_marginal" in codes
        assert manifest["tunnelkit_version"]
        assert manifest["task"] == "arrival-density"

    def test_each_warning_once(self, tmp_path):
        # the double barrier (0.4, 1.0, 400), with the packet of
        # _resonance_double re-centred on its first resonance: |T0p|^2 = 0.32
        # warns `opacity` at each of the run's two decay_rate(k0) calls
        cfg = _resonance_double()
        cfg["barrier"]["segments"][0]["w"] = cfg["barrier"]["segments"][2]["w"] = 1.0
        cfg["packet"]["p"] = float(find_resonances(0.4, 1.0, 400.0, 1.0, k_window=(0.3, 0.4))[0])
        path = _write(tmp_path, "c.json", {"name": "once", **cfg,
                                           "output": {"dir": str(tmp_path / "out")}})
        assert main(["run", path]) == 0
        found = json.loads((tmp_path / "out" / "once_manifest.json").read_text())["warnings"]
        assert [w["code"] for w in found].count("opacity") == 1
        assert all(w not in found[:i] for i, w in enumerate(found))
        # the direct and the model fit of the tail each name their density
        fits = [w["context"] for w in found if w["code"] == "fit_quality"]
        assert sorted(c["density"] for c in fits) == ["direct", "resonance"]
        assert all(c["n_points"] >= 10 and c["window"][0] < c["window"][1] for c in fits)

    def test_resonance_regime_without_k0_searches_once(self, tmp_path, monkeypatch):
        # parsing picks the resonance nearest p and the run takes it from there;
        # a warning of that one search reaches the manifest once, with the
        # far-field one before it: the parser's warnings come first
        cfg = _resonance_double()
        search, calls = cli.analysis.find_resonances, []

        def warns(*args, **kwargs):
            calls.append(args)
            warn_regime("resonance_verification", "1 resonance candidate dropped",
                        dropped=[0.5])
            return search(*args, **kwargs)

        monkeypatch.setattr(cli.analysis, "find_resonances", warns)
        path = _write(tmp_path, "c.json", {"name": "k0", **cfg,
                                           "output": {"dir": str(tmp_path / "out")}})
        assert main(["run", path]) == 0
        assert len(calls) == 1
        manifest = json.loads((tmp_path / "out" / "k0_manifest.json").read_text())
        codes = [w["code"] for w in manifest["warnings"]]
        assert codes.count("resonance_verification") == 1
        assert codes[:2] == ["far_field_marginal", "resonance_verification"]
        assert manifest["diagnostics"]["k0"] == pytest.approx(cfg["packet"]["p"], abs=1e-9)

    def test_numeric_failure_exit_code(self, tmp_path, capsys, monkeypatch):
        # the README quickstart converges in 8 rounds, so a 2-round limit
        # leaves a quadrature that cannot meet its tolerance
        monkeypatch.setattr(_quadrature, "MAX_ROUNDS", 2)
        cfg = _write(tmp_path, "c.json", {**_readme_config(),
                                          "output": {"dir": str(tmp_path / "out")}})
        assert main(["validate", cfg]) == 0
        assert main(["run", cfg]) == 2
        assert "numeric failure" in capsys.readouterr().err

    def test_failed_scan_block_leaves_no_csv(self, tmp_path, capsys, monkeypatch):
        # rows are written as their block is evaluated; a block that raises
        # leaves neither a truncated CSV nor its temporary file
        calls = []

        def second_block_fails(profile, k):
            calls.append(k.size)
            if len(calls) == 2:
                raise PhysicsDomainError("unitarity check failed")
            return piecewise_amplitudes(profile, k)

        monkeypatch.setattr(cli, "piecewise_amplitudes", second_block_fails)
        assert main(["run", _scan(tmp_path, cli._SCAN_BLOCK + 1)]) == 2
        assert calls == [cli._SCAN_BLOCK, 1]
        assert "unitarity check failed" in capsys.readouterr().err
        assert list((tmp_path / "out").iterdir()) == []

    def test_unexpected_exception_exit_code(self, tmp_path, capsys, monkeypatch):
        # an exception of no tunnelkit class is a bug: exit 4 with one line on
        # stderr, not a traceback with exit 1, and no CSV or temporary file
        def fails(profile, k):
            raise RuntimeError("not a tunnelkit error")

        monkeypatch.setattr(cli, "piecewise_amplitudes", fails)
        assert main(["run", _scan(tmp_path, 8)]) == 4
        err = capsys.readouterr().err
        assert err == "internal error: RuntimeError: not a tunnelkit error\n"
        assert list((tmp_path / "out").iterdir()) == []

    def test_other_warning_reaches_manifest_as_generic(self, tmp_path, monkeypatch):
        def warns(profile, k):
            warnings.warn("not a regime warning", UserWarning)
            return piecewise_amplitudes(profile, k)

        monkeypatch.setattr(cli, "piecewise_amplitudes", warns)
        assert main(["run", _scan(tmp_path, 8)]) == 0
        manifest = json.loads((tmp_path / "out" / "scan_manifest.json").read_text())
        assert manifest["warnings"] == [{"code": "generic", "message": "not a regime warning",
                                         "context": {}}]

    def test_opaque_wall_peaks_run_is_no_config_error(self, tmp_path, capsys):
        # |R0p|^2 rounds to 1.0 at a = 28, where the peak-series model died
        # with a bare ZeroDivisionError. The run now ends as a numeric result:
        # today exit 2, because at the refinement node k = 0.35057148984268105,
        # next to a resonance (|T| = 1.3e-9), |T|^2 + |R|^2 misses 1 by
        # 2.93e-8, above the unitarity tolerance 1e-8. The digits go where
        # _segment_product composes the two opaque barriers: the entries of
        # the scaled product are 3.1e-10 of the summed size of their terms,
        # while |D| is 0.60 of its terms. 1e-10 away the ratio is 2.6e-7 and
        # the miss at most 2.9e-11; a uniform 2M-point scan of the packet's
        # k_window stays below 7.6e-12
        cfg = _write(tmp_path, "c.json", {
            "name": "wall",
            "barrier": {"mass": 1.0, "segments": [{"v": 0.4, "w": 28.0},
                                                  {"v": 0.0, "w": 3000.0},
                                                  {"v": 0.4, "w": 28.0}]},
            "packet": {"shape": "gaussian", "p": 0.35, "sigma_p": 5e-4, "x0": 5000.0},
            "detector": {"position": 40000.0},
            "task": {"kind": "regime-compare", "regime": "peaks", "n_peaks": 4, "n_t": 600},
            "output": {"dir": str(tmp_path / "out")},
        })
        assert main(["run", cfg]) in (0, 2)
        assert "config error" not in capsys.readouterr().err

    def test_underflowing_momentum_exit_code(self, tmp_path, capsys):
        # at p = 1e-9, E - m underflows in the closed forms: a config error at
        # packet.p, no traceback
        cfg = _write(tmp_path, "c.json", {
            "name": "tiny",
            "barrier": _small_double()["barrier"],
            "packet": {"shape": "gaussian", "p": 1e-9, "sigma_p": 1e-10, "x0": 100.0},
            "detector": {"position": 2000.0},
            "task": {"kind": "decay-fit"},
            "output": {"dir": str(tmp_path / "out")},
        })
        assert main(["validate", cfg]) == 1
        assert main(["run", cfg]) == 1
        err = capsys.readouterr().err
        assert "k = 1e-09" in err and "packet.p" in err
        # the same p in a peaks regime-compare, and a resonance regime's k0 of 1e-9
        peaks = {**_small_double(), "task": {"kind": "regime-compare", "regime": "peaks"}}
        peaks["packet"].update(p=1e-9, sigma_p=1e-10, x0=100.0)
        for config, path in ((peaks, "packet.p"), (_resonance_double(k0=1e-9), "task.k0")):
            cfg = _write(tmp_path, "c.json", {**config, "name": "tiny",
                                              "output": {"dir": str(tmp_path / "out")}})
            for command in ("validate", "run"):
                assert main([command, cfg]) == 1
                assert f"{path}: k = 1e-09" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_unwritable_output_is_io_error(self, tmp_path):
        cfg = _write(tmp_path, "c.json", {
            "name": "io",
            "barrier": {"mass": 1.0, "segments": [{"v": 0.5, "w": 5.0}]},
            "task": {"kind": "transmission-scan", "k_min": 0.1, "k_max": 0.6,
                     "n_k": 8},
            "output": {"dir": "/proc/tunnelkit-cannot-write"},
        })
        assert main(["run", cfg]) == 3
