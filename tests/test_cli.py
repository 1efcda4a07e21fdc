"""CLI: schema validation, artifacts, determinism, manifest, exit codes."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from tunnelkit import double_barrier_report, find_resonances
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

    def test_regime_compare_resonance(self, tmp_path):
        v0, a, r, m = 0.4, 2.5, 400.0, 1.0
        res = find_resonances(v0, a, r, m, k_window=(0.3, 0.4))
        k0 = float(res[0])
        from tunnelkit import decay_rate
        gamma = decay_rate(k0, v0, a, r, m)
        vp = k0 / math.hypot(k0, m)
        sigma_p = 4.0 * gamma / vp
        cfg = _write(tmp_path, "c.json", {
            "name": "resc",
            "barrier": {"mass": m, "segments": [{"v": v0, "w": a},
                                                {"v": 0.0, "w": r},
                                                {"v": v0, "w": a}]},
            "packet": {"shape": "lorentzian", "p": k0, "sigma_p": sigma_p,
                       "x0": 5.0 / (math.sqrt(2) * sigma_p)},
            "detector": {"position": 10.0 * (2 * a + r)},
            "task": {"kind": "regime-compare", "regime": "resonance",
                     "n_t": 600, "decay_spans": 2.0, "rel_tol": 1e-6},
            "output": {"dir": str(tmp_path / "out")},
        })
        assert main(["run", cfg]) == 0
        summary = dict(line.split(",") for line in
                       (tmp_path / "out" / "resc_regime_summary.csv").read_text()
                       .splitlines()[1:])
        assert float(summary["gamma_model"]) == pytest.approx(
            float(summary["gamma_direct"]), rel=0.05)

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

    def test_unwritable_output_is_io_error(self, tmp_path):
        cfg = _write(tmp_path, "c.json", {
            "name": "io",
            "barrier": {"mass": 1.0, "segments": [{"v": 0.5, "w": 5.0}]},
            "task": {"kind": "transmission-scan", "k_min": 0.1, "k_max": 0.6,
                     "n_k": 8},
            "output": {"dir": "/proc/tunnelkit-cannot-write"},
        })
        assert main(["run", cfg]) == 3
