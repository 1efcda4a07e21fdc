"""CLI: schema validation, artifacts, determinism, manifest, exit codes."""

from __future__ import annotations

import copy
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from tunnelkit import decay_rate, double_barrier_report, find_resonances
from tunnelkit.cli import main


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
    _case(("task", "reltol"), 1e-6, "task.reltol"),
    _case(("task", "gamma"), 1e-3, "task.gamma"),
    *(_case(("task", field), 1.0, f"task.{field}", kind) for kind, field in (
        ("transmission-scan", "n_t"), ("arrival-density", "span_sigma"),
        ("tunneling-time-scan", "v0"), ("resonance-scan", "n_k"), ("decay-fit", "n_t"))),
    # an explicit window leaves span_sigmas unread
    _case(("task", "span_sigmas"), 8.0, "task.span_sigmas",
          task={"kind": "arrival-density", "t_min": 8000.0, "t_max": 9000.0}),
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

    def test_near_field_detector_is_config_error(self, tmp_path, capsys):
        cfg = _write(tmp_path, "c.json", {
            "name": "near",
            "barrier": {"mass": 1.0, "segments": [{"v": 0.5, "w": 10.0}]},
            "packet": {"shape": "gaussian", "p": 0.3, "sigma_p": 0.01, "x0": 50.0},
            "detector": {"position": 50.0},
            "task": {"kind": "arrival-density", "n_t": 32},
        })
        assert main(["validate", cfg]) == 1
        assert "detector.position" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["validate", "run"])
    @pytest.mark.parametrize("task, absorption, path", [
        pytest.param({"regime": "resonance", "n_peaks": "ten"}, None, "task.n_peaks",
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
        base = _small_double()
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

    @pytest.mark.parametrize("keys, value, path, task", _INPUT_RULES)
    def test_input_rule_names_its_field(self, tmp_path, capsys, keys, value, path, task):
        cfg = {"name": "rule", **_small_double(), "task": dict(task),
               "output": {"dir": str(tmp_path / "out")}}
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

    def test_readme_config_validates(self, tmp_path):
        # the documented schema and the parser cannot drift apart unnoticed
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        block = re.search(r"```json\n(.*?)```", readme, re.S).group(1)
        assert main(["validate", _write(tmp_path, "c.json", json.loads(block))]) == 0

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
        # pi pre-panels: 73 panels in 12 rounds (157 in 7 at pi/4)
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
        assert (quad["panels"], quad["refinement_rounds"], quad["grid_rechecks"]) == (73, 12, 0)

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


class TestManifestAndDeterminism:
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

    def test_numeric_failure_exit_code(self, tmp_path, capsys):
        # a double barrier too short to host any resonance: regime-compare
        # in resonance mode has nothing to lock onto
        cfg = _write(tmp_path, "c.json", {
            "name": "nores",
            "barrier": {"mass": 1.0, "segments": [{"v": 0.05, "w": 0.3},
                                                  {"v": 0.0, "w": 0.4},
                                                  {"v": 0.05, "w": 0.3}]},
            "packet": {"shape": "lorentzian", "p": 0.2, "sigma_p": 0.01, "x0": 500.0},
            "detector": {"position": 100.0},
            "task": {"kind": "regime-compare", "regime": "resonance", "n_t": 64},
            "output": {"dir": str(tmp_path / "out")},
        })
        assert main(["run", cfg]) == 2
        assert "numeric failure" in capsys.readouterr().err

    def test_opaque_wall_peaks_run_is_no_config_error(self, tmp_path, capsys):
        # |R0p|^2 rounds to 1.0 at a = 28, where the peak-series model died
        # with a bare ZeroDivisionError. The run now ends as a numeric result:
        # today exit 2, because the direct density's |T|^2 + |R|^2 misses 1 by
        # 2.2e-8, above the unitarity tolerance 1e-8
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
        # at p = 1e-9, E - m underflows in the closed forms: exit 2, no traceback
        cfg = _write(tmp_path, "c.json", {
            "name": "tiny",
            "barrier": _small_double()["barrier"],
            "packet": {"shape": "gaussian", "p": 1e-9, "sigma_p": 1e-10, "x0": 100.0},
            "detector": {"position": 2000.0},
            "task": {"kind": "decay-fit"},
            "output": {"dir": str(tmp_path / "out")},
        })
        assert main(["validate", cfg]) == 0
        assert main(["run", cfg]) == 2
        assert "k = 1e-09" in capsys.readouterr().err

    def test_unwritable_output_is_io_error(self, tmp_path):
        cfg = _write(tmp_path, "c.json", {
            "name": "io",
            "barrier": {"mass": 1.0, "segments": [{"v": 0.5, "w": 5.0}]},
            "task": {"kind": "transmission-scan", "k_min": 0.1, "k_max": 0.6,
                     "n_k": 8},
            "output": {"dir": "/proc/tunnelkit-cannot-write"},
        })
        assert main(["run", cfg]) == 3
