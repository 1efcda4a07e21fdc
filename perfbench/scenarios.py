"""Workload inputs, operations and correctness checks of the benchmark.

A workload is a list of operations ("ops") run in order by one caller. Each
op has a timed ``run`` step and an untimed ``check`` step. ``check`` raises
``CheckFailed`` when an output is wrong and otherwise returns the op's work
counters (panels, refinement rounds, rows and bytes written, ...).

Inputs come from the seed alone. The default seed reproduces the scenarios
of the acceptance suite and the README exactly, and its outputs are also
compared with the references stored under ``refs/``. Every other seed moves
the packet momentum and the barrier gap by at most 0.5%, which keeps each
scenario in its regime; those outputs are checked by physics invariants only.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import tunnelkit as tk
from tunnelkit import analysis, cli, wavepacket

DEFAULT_SEED = 0
M = 1.0
REF_DIR = Path(__file__).resolve().parent / "refs"
# the reference comparison allows this many times the op's own rel_tol
REF_TOL_FACTOR = 10.0
# rows kept per reference array, so references stay small
REF_ROWS = 400


class CheckFailed(Exception):
    """An op's output failed a correctness check."""


@dataclass
class Op:
    """One operation: ``run(state)`` is timed, ``check(output)`` is not."""

    name: str
    run: Callable[[dict], object]
    check: Callable[[object], dict]
    rel_tol: float
    reference: Callable[[object], dict] | None = None


@dataclass
class Workload:
    name: str
    ops: list[Op]
    workdir: Path
    refs: dict = field(default_factory=dict)

    def clear_outputs(self) -> None:
        """Remove the previous pass's artifacts so a stale file never passes."""
        if self.workdir.exists():
            for child in self.workdir.iterdir():
                if child.is_dir():
                    shutil.rmtree(child)


def _velocity(p: float) -> float:
    return p / math.hypot(p, M)


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def _quiet(fn, *args, **kwargs):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return fn(*args, **kwargs)


def perturbation(seed: int) -> tuple[float, float]:
    """(momentum factor, gap factor): exactly 1 on the default seed."""
    if seed == DEFAULT_SEED:
        return 1.0, 1.0
    fp, fr = 1.0 + np.random.default_rng(seed).uniform(-0.005, 0.005, size=2)
    return float(fp), float(fr)


# ---------------------------------------------------------------------------
# reference comparison


def subsample(values) -> list:
    """Every k-th entry, k chosen so at most REF_ROWS remain."""
    arr = np.asarray(values, dtype=float)
    stride = max(1, -(-arr.size // REF_ROWS))
    return arr[::stride].tolist()


def max_rel_dev(values, ref) -> float:
    """max |x - x_ref| / max |x_ref| over the subsampled entries."""
    got = np.asarray(subsample(values))
    ref = np.asarray(ref, dtype=float)
    if got.shape != ref.shape:
        raise CheckFailed(f"output has {got.size} reference rows, reference {ref.size}")
    scale = max(float(np.max(np.abs(ref))), 1e-300)
    return float(np.max(np.abs(got - ref))) / scale


def compare_to_reference(op: Op, output, ref: dict) -> dict:
    """Relative deviation of each reference array; fails above the op's tolerance."""
    current = op.reference(output)
    devs = {}
    for key, ref_values in ref.items():
        if key not in current:
            raise CheckFailed(f"reference field {key!r} missing from output")
        devs[key] = max_rel_dev(current[key], ref_values)
        _expect(devs[key] <= REF_TOL_FACTOR * op.rel_tol,
                f"{key} deviates from the reference by {devs[key]:.3e} "
                f"> {REF_TOL_FACTOR:g} x rel_tol = {REF_TOL_FACTOR * op.rel_tol:.1e}")
    return devs


def load_refs(name: str) -> dict:
    path = REF_DIR / f"{name}.json"
    with open(path, encoding="utf-8") as f:
        return json.load(f)


# ---------------------------------------------------------------------------
# CLI ops: the config is written during set-up, the op is one cli.main call


def read_csv(path: Path) -> np.ndarray:
    """Numeric CSV body as a 2-d float array (header dropped).

    loadtxt parses in chunks, so checking a large artifact does not raise
    the process's peak memory above the op's own.
    """
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def read_kv_csv(path: Path) -> dict:
    rows = path.read_text(encoding="utf-8").splitlines()[1:]
    return {k: float(v) for k, v in (row.split(",") for row in rows)}


@dataclass
class CliRun:
    out: Path
    name: str
    code: int
    stderr: str

    def manifest(self) -> dict:
        path = self.out / f"{self.name}_manifest.json"
        _expect(path.exists(), f"exit {self.code} and no manifest: {self.stderr.strip()}")
        with open(path, encoding="utf-8") as f:
            return json.load(f)

    def artifact(self, suffix: str) -> Path:
        path = self.out / f"{self.name}_{suffix}"
        _expect(path.exists(), f"artifact {path.name} missing")
        return path


def cli_op(workdir: Path, config: dict, rel_tol: float, check, reference) -> Op:
    """An op that runs ``tunnelkit run <config>`` through cli.main in process."""
    name = config["name"]
    cfg_path = workdir / f"{name}.json"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    out = workdir / name

    def run(state):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            # looked up at call time, so a traced run sees the wrapped main
            code = cli.main(["run", str(cfg_path), "--out", str(out)])
        return CliRun(out, name, code, err.getvalue())

    def checked(res: CliRun) -> dict:
        _expect(res.code == 0, f"exit code {res.code}: {res.stderr.strip()}")
        manifest = res.manifest()
        counters = _artifact_counters(res, manifest)
        quad = manifest["diagnostics"].get("quadrature")
        if quad is not None:
            counters.update(_quadrature_counters(quad))
        counters.update(check(res))
        return counters

    return Op(name, run, checked, rel_tol, reference)


def _artifact_counters(res: CliRun, manifest: dict) -> dict:
    # the manifest holds a timing, so its size is no work counter
    rows = nbytes = 0
    for artifact in manifest["artifacts"]:
        path = res.out / artifact
        nbytes += path.stat().st_size
        if artifact.endswith(".csv"):
            with open(path, "rb") as f:
                rows += sum(1 for _ in f) - 1
    return {"rows_written": rows, "bytes_written": nbytes}


def _quadrature_counters(quad: dict, n_times: int | None = None) -> dict:
    out = {"panels": int(quad["panels"]),
           "refinement_rounds": int(quad.get("refinement_rounds", 0)),
           "table_mode": quad.get("table_mode")}
    if n_times is not None:
        out["n_times"] = n_times
    return out


def _density_counters(dist) -> dict:
    return _quadrature_counters(dist.metadata["quadrature"], dist.times.size)


def _check_density(times, density, L: float, x0: float, sigma_x: float) -> None:
    _expect(np.all(np.isfinite(density)) and np.all(density >= 0.0),
            "density has negative or non-finite samples")
    dist = tk.ArrivalDistribution(times=np.asarray(times), density=np.asarray(density))
    frac = tk.causality_mass(dist, L, x0, 5.0 * sigma_x)
    _expect(frac < 1e-3, f"pre-light-cone mass {frac:.2e} >= 1e-3")


def _double(v0, a, r):
    return {"mass": M, "segments": [{"v": v0, "w": a}, {"v": 0.0, "w": r},
                                    {"v": v0, "w": a}]}


# ---------------------------------------------------------------------------
# peak-train: acceptance item 7 as library calls


def peak_train(workdir: Path, seed: int) -> list[Op]:
    fp, fr = perturbation(seed)
    p, v0, a, r = 0.35 * fp, 0.4, 2.5, 6000.0 * fr
    rel_tol = 1e-7
    rep0 = tk.double_barrier_report(p, v0, a, r, M)
    vp = _velocity(p)
    sigma_x = vp * rep0.dt / 8.0
    spec = tk.WavePacketSpec("gaussian", p=p, sigma_p=1.0 / (2 * sigma_x), x0=5.0 * sigma_x)
    prof = tk.PotentialProfile.double(M, v0, a, r)
    det = tk.DetectorSpec(position=10.0 * prof.width)
    rep = tk.double_barrier_report(p, v0, a, r, M, L=det.position, x0=spec.x0,
                                   sigma_p=spec.sigma_p)
    times = np.linspace(det.position + spec.x0 - 8.0 * spec.sigma_x,
                        rep.t0 + 16.5 * rep.dt, 2800)
    step = times[1] - times[0]
    fit_window = (rep.t0 - 0.5 * rep.dt, float(times[-1]))

    def density(state):
        state["dist"] = _quiet(wavepacket.arrival_density, times, spec, prof, det,
                               rel_tol=rel_tol)
        return state["dist"]

    def check_density(dist):
        _check_density(dist.times, dist.density, det.position, spec.x0, spec.sigma_x)
        return _density_counters(dist)

    def need(state, key):
        _expect(key in state, f"input {key!r} missing: an earlier op failed")
        return state[key]

    def peaks(state):
        state["peaks"] = analysis.detect_peaks(need(state, "dist"))
        return state["peaks"]

    def check_peaks(pk):
        _expect(len(pk) >= 4, f"only {len(pk)} peaks found")
        ts = np.array([t for t, _ in pk])
        spacing = float(np.mean(np.diff(ts)))
        _expect(abs(spacing / rep.dt - 1.0) <= 0.01,
                f"peak spacing {spacing:.6g} not within 1% of dt = {rep.dt:.6g}")
        _expect(abs(ts[0] - rep.t0) < step, "first peak more than one step from t0")
        return {"n_peaks": len(pk)}

    def fit(state):
        return _quiet(analysis.fit_exponential, need(state, "dist"), fit_window,
                      on_peaks=True)

    def check_fit(res):
        _expect(rep.T0p_abs2 <= 0.05, f"|T0p|^2 = {rep.T0p_abs2:.4f} > 0.05: left the regime")
        _expect(abs(res.rate / rep.gamma_p - 1.0) <= 0.05,
                f"fitted rate {res.rate:.6g} not within 5% of Gamma_p = {rep.gamma_p:.6g}")
        return {}

    def model(state):
        dist = need(state, "dist")
        return dist, _quiet(analysis.peak_series_density, times, spec, det.position,
                            v0, a, r, M)

    def check_model(res):
        dist, mod = res
        worst = 0.0
        for n in range(6):
            sel = np.abs(times - (rep.t0 + n * rep.dt)) < 2.0 * spec.sigma_x / vp
            local = dist.density[sel]
            big = local > 0.01 * np.max(local)
            rel = np.abs(mod.density[sel][big] - local[big]) / local[big]
            worst = max(worst, float(np.max(rel)))
        _expect(worst < 0.05, f"peak series off direct quadrature by {worst:.3f} >= 5%")
        return {}

    return [
        Op("item7_density", density, check_density, rel_tol,
           lambda d: {"P": d.density}),
        Op("item7_peaks", peaks, check_peaks, rel_tol,
           lambda pk: {"t": [t for t, _ in pk], "h": [h for _, h in pk]}),
        Op("item7_fit", fit, check_fit, rel_tol,
           lambda f: {"rate": [f.rate], "log_intercept": [f.log_intercept]}),
        Op("item7_model", model, check_model, rel_tol,
           lambda res: {"P_model": res[1].density}),
    ]


# ---------------------------------------------------------------------------
# figure-cli: the paper's figure scenarios through tunnelkit.cli.main


def figure_cli(workdir: Path, seed: int) -> list[Op]:
    fp, fr = perturbation(seed)
    ops = []

    # README quickstart
    p = 0.35 * fp
    r = 300.0 * fr
    qs_tol = 1e-8
    qs_cfg = {"name": "quickstart", "barrier": _double(0.4, 2.5, r),
              "packet": {"shape": "gaussian", "p": p, "sigma_p": 0.004, "x0": 700.0},
              "detector": {"position": 10.0 * (5.0 + r)},
              "task": {"kind": "arrival-density", "n_t": 1500, "span_sigmas": 10.0}}
    qs_sigma_t = (0.5 / 0.004) / _velocity(p)

    def check_quickstart(res):
        data = read_csv(res.artifact("arrival_density.csv"))
        _expect(data.shape[0] == 1500, f"{data.shape[0]} rows, expected 1500")
        with open(res.artifact("arrival_density.json"), encoding="utf-8") as f:
            t_est = json.load(f)["t_peak_estimate"]
        _check_density(data[:, 0], data[:, 1], 10.0 * (5.0 + r), 700.0, 0.5 / 0.004)
        t_max = data[int(np.argmax(data[:, 1])), 0]
        _expect(abs(t_max - t_est) < 0.5 * qs_sigma_t,
                "density maximum is not at the stationary-phase peak")
        return {"n_times": 1500}

    ops.append(cli_op(workdir, qs_cfg, qs_tol, check_quickstart,
                      lambda res: {"P": read_csv(res.artifact("arrival_density.csv"))[:, 1]}))

    # fig. 2: decay fit on a 3000/m gap
    v0, a = 0.4, 2.5
    r2 = 3000.0 * fr
    rep2 = tk.double_barrier_report(p, v0, a, r2, M)
    sigma_x = _velocity(p) * rep2.dt / 8.0
    fig2_tol = 1e-6
    fig2_cfg = {"name": "fig2", "barrier": _double(v0, a, r2),
                "packet": {"shape": "gaussian", "p": p, "sigma_p": 1.0 / (2 * sigma_x),
                           "x0": 5 * sigma_x},
                "detector": {"position": 11.0 * (2 * a + r2)},
                "task": {"kind": "decay-fit", "n_peaks": 8, "samples_per_peak": 12,
                         "rel_tol": fig2_tol}}

    def check_fig2(res):
        rows = read_kv_csv(res.artifact("decay_fit.csv"))
        _expect(abs(rows["gamma_fit"] / rows["gamma_formula"] - 1.0) <= 0.10,
                "fitted decay rate not within 10% of Gamma_p")
        _expect(abs(rows["dt"] / rep2.dt - 1.0) <= 0.01, "peak spacing not within 1% of dt")
        n_t = read_csv(res.artifact("decay_fit_density.csv")).shape[0]
        return {"n_times": n_t}

    ops.append(cli_op(workdir, fig2_cfg, fig2_tol, check_fig2, lambda res: {
        "P": read_csv(res.artifact("decay_fit_density.csv"))[:, 1],
        "summary": list(read_kv_csv(res.artifact("decay_fit.csv")).values())}))

    # regime comparisons: peaks (fig. 2 geometry), continuum, resonance
    peaks_cfg = dict(fig2_cfg, name="regime_peaks",
                     task={"kind": "regime-compare", "regime": "peaks", "n_peaks": 8,
                           "n_t": 1500, "rel_tol": fig2_tol})

    def check_peaks(res):
        s = read_kv_csv(res.artifact("regime_summary.csv"))
        _expect(abs(s["dt_direct"] / s["dt_formula"] - 1.0) <= 0.01,
                "direct peak spacing not within 1% of dt")
        _expect(abs(s["gamma_model"] / s["gamma_direct"] - 1.0) <= 0.05,
                "peak-series rate not within 5% of the direct rate")
        return _check_regime_csv(res)

    ops.append(cli_op(workdir, peaks_cfg, fig2_tol, check_peaks, _regime_reference))

    a_c, sigma_c = 2.8, 2.0e-4
    vp = _velocity(p)
    tau = tk.square_barrier_tunneling_time(p, v0, a_c, M)
    r_c = vp * (0.25 / (sigma_c * vp) - tau)  # sigma_p v_p dt = 0.5
    cont_tol = 1e-7
    cont_cfg = {"name": "regime_continuum", "barrier": _double(v0, a_c, r_c),
                "packet": {"shape": "gaussian", "p": p, "sigma_p": sigma_c,
                           "x0": 5.0 / (2 * sigma_c)},
                "detector": {"position": 10.0 * (2 * a_c + r_c)},
                "task": {"kind": "regime-compare", "regime": "continuum",
                         "n_t": 2000, "rel_tol": cont_tol}}

    def check_continuum(res):
        s = read_kv_csv(res.artifact("regime_summary.csv"))
        _expect(abs(s["gamma_model"] / s["gamma_direct"] - 1.0) <= 0.02,
                "continuum rate not within 2% of the direct rate")
        return _check_regime_csv(res)

    ops.append(cli_op(workdir, cont_cfg, cont_tol, check_continuum, _regime_reference))

    v0b, ab = 0.4, 2.5
    rb = 400.0 * fr
    k0 = float(tk.find_resonances(v0b, ab, rb, M, k_window=(0.3, 0.4))[0])
    gamma = tk.decay_rate(k0, v0b, ab, rb, M)
    sigma_r = 4.0 * gamma / _velocity(k0)
    res_tol = 1e-6
    res_cfg = {"name": "regime_resonance", "barrier": _double(v0b, ab, rb),
               "packet": {"shape": "lorentzian", "p": k0, "sigma_p": sigma_r,
                          "x0": 5.0 / (math.sqrt(2) * sigma_r)},
               "detector": {"position": 10.0 * (2 * ab + rb)},
               "task": {"kind": "regime-compare", "regime": "resonance", "n_t": 1500,
                        "decay_spans": 2.0, "rel_tol": res_tol}}

    def check_resonance(res):
        s = read_kv_csv(res.artifact("regime_summary.csv"))
        _expect(abs(s["gamma_model"] / s["gamma_direct"] - 1.0) <= 0.05,
                "resonance rate not within 5% of the direct rate")
        return _check_regime_csv(res)

    ops.append(cli_op(workdir, res_cfg, res_tol, check_resonance, _regime_reference))

    # fig. 5: two-resonance beating
    res = tk.find_resonances(v0b, ab, rb, M, k_window=(0.30, 0.42))
    i = int(np.argmin(np.abs(res - 0.35)))
    k1, k2 = float(res[i]), float(res[i + 1])
    pb = 0.5 * (k1 + k2)
    vpb = _velocity(pb)
    sig_b = 0.6 * (k2 - k1)
    L5 = 10.0 * (2 * ab + rb)
    brep = tk.double_barrier_report(pb, v0b, ab, rb, M, L=L5, x0=5.0 / (2 * sig_b))
    gam = tk.decay_rate(k1, v0b, ab, rb, M)
    fig5_tol = 1e-6
    fig5_cfg = {"name": "fig5", "barrier": _double(v0b, ab, rb),
                "packet": {"shape": "gaussian", "p": pb, "sigma_p": sig_b,
                           "x0": 5.0 / (2 * sig_b)},
                "detector": {"position": L5},
                "task": {"kind": "arrival-density", "rel_tol": fig5_tol, "n_t": 4000,
                         "t_min": brep.t0 - 2.0 / (sig_b * vpb),
                         "t_max": brep.t0 + 1.2 / gam}}

    def check_fig5(res):
        data = read_csv(res.artifact("arrival_density.csv"))
        _check_density(data[:, 0], data[:, 1], L5, 5.0 / (2 * sig_b), 0.5 / sig_b)
        tail = data[:, 0] > brep.t0 + 6.0 / (sig_b * vpb)
        sub = tk.ArrivalDistribution(times=data[tail, 0], density=data[tail, 1])
        period = float(np.median(np.diff([t for t, _ in analysis.detect_peaks(sub)])))
        beat = 2 * math.pi / period / (vpb * (k2 - k1))
        _expect(abs(beat - 1.0) <= 0.02, f"beat frequency off v|k2-k1| by {beat - 1.0:.3f}")
        return {"n_times": data.shape[0]}

    ops.append(cli_op(workdir, fig5_cfg, fig5_tol, check_fig5,
                      lambda res: {"P": read_csv(res.artifact("arrival_density.csv"))[:, 1]}))
    return ops


def _check_regime_csv(res: CliRun) -> dict:
    data = read_csv(res.artifact("regime_compare.csv"))
    _expect(np.all(np.isfinite(data[:, 1:3])) and np.all(data[:, 1:3] >= 0.0),
            "regime densities have negative or non-finite samples")
    return {"n_times": data.shape[0]}


def _regime_reference(res: CliRun) -> dict:
    data = read_csv(res.artifact("regime_compare.csv"))
    return {"P_direct": data[:, 1], "P_model": data[:, 2],
            "summary": list(read_kv_csv(res.artifact("regime_summary.csv")).values())}


# ---------------------------------------------------------------------------
# scans: amplitudes, adaptive quadrature, Chebyshev tables, CSV output


def scans(workdir: Path, seed: int) -> list[Op]:
    fp, fr = perturbation(seed)
    ops = []
    v0, a = 0.4, 2.5
    r = 6000.0 * fr

    n_k = 100_000
    ts_cfg = {"name": "transmission_scan", "barrier": _double(v0, a, r),
              "task": {"kind": "transmission-scan", "k_min": 0.05, "k_max": 1.2,
                       "n_k": n_k}}

    def check_transmission(res):
        data = read_csv(res.artifact("transmission_scan.csv"))
        _expect(data.shape[0] == n_k, f"{data.shape[0]} rows, expected {n_k}")
        flux = data[:, 1] ** 2 + data[:, 2] ** 2 + data[:, 3] ** 2 + data[:, 4] ** 2
        worst = float(np.max(np.abs(flux - 1.0)))
        _expect(worst <= 1e-10, f"|T|^2 + |R|^2 off 1 by {worst:.2e}")
        return {}

    ops.append(cli_op(workdir, ts_cfg, 1e-12, check_transmission, lambda res: {
        f"c{i}": col for i, col in enumerate(read_csv(res.artifact("transmission_scan.csv")).T)}))

    rs_cfg = {"name": "resonance_scan", "barrier": _double(v0, a, r),
              "task": {"kind": "resonance-scan"}}

    def check_resonances(res):
        data = read_csv(res.artifact("resonance_scan.csv"))
        _expect(data.shape[0] >= 1, "no resonances found")
        _expect(np.all(np.diff(data[:, 1]) > 0), "resonance momenta not increasing")
        _expect(float(np.min(data[:, 2])) >= 1.0 - 1e-6, "a resonance has |T| < 1 - 1e-6")
        return {"resonances": data.shape[0]}

    ops.append(cli_op(workdir, rs_cfg, 1e-9, check_resonances, lambda res: {
        f"c{i}": col for i, col in enumerate(read_csv(res.artifact("resonance_scan.csv")).T)}))

    d = 5000.0 * fr
    heights = [0.2, 0.4, 0.6, 0.8]
    tt_cfg = {"name": "fig1", "task": {"kind": "tunneling-time-scan", "mass": M, "d": d,
                                       "v0_values": heights, "n_p": 120}}

    def check_tunneling(res):
        for h in heights:
            data = read_csv(res.artifact(f"tunneling_time_V0_{h!r}.csv"))
            ps, taus = data[:, 0], data[:, 1]
            _expect(np.all(np.isfinite(taus)) and np.all(taus > 0.0),
                    "non-positive or non-finite tunneling time")
            _expect(abs(ps[-1] / tk.tunneling_window(h, M)[1] - 1.0) <= 1e-6,
                    "scan does not reach the tunneling-window edge")
            mid = ps.size // 2
            opaque = tk.opaque_tunneling_time(float(ps[mid]), h, M)
            _expect(abs(taus[mid] / opaque - 1.0) <= 1e-6, "no saturation to the opaque limit")
        return {}

    ops.append(cli_op(workdir, tt_cfg, 1e-12, check_tunneling, lambda res: {
        f"tau_{h!r}": read_csv(res.artifact(f"tunneling_time_V0_{h!r}.csv"))[:, 1]
        for h in heights}))

    # acceptance item 8: on- vs off-resonance packets on a short double barrier
    prof8 = tk.PotentialProfile.double(M, 0.5, 3.0, 40.0 * fr)
    ks = tk.find_resonances(0.5, 3.0, 40.0 * fr, M)
    packets = []
    for i in range(10):
        k1, k2 = float(ks[i]), float(ks[i + 1])
        for div in (6.0, 8.0):
            sigma = (k2 - k1) / div
            packets.append((tk.WavePacketSpec("gaussian", p=k1, sigma_p=sigma, x0=1000.0),
                            tk.WavePacketSpec("gaussian", p=0.5 * (k1 + k2),
                                              sigma_p=sigma, x0=1000.0)))
    sweep_tol = 1e-10

    def sweep(state):
        return [(_quiet(wavepacket.total_transmission, on, prof8, rel_tol=sweep_tol),
                 _quiet(wavepacket.total_transmission, off, prof8, rel_tol=sweep_tol))
                for on, off in packets]

    def check_sweep(pairs):
        vals = np.array(pairs)
        _expect(np.all(vals >= 0.0) and np.all(vals <= 1.0 + 1e-9),
                "packet transmission outside [0, 1]")
        contrast = float(np.min(vals[:, 0] / vals[:, 1]))
        _expect(contrast >= 10.0, f"on/off-resonance contrast {contrast:.2f} < 10")
        return {"packets": vals.size}

    ops.append(Op("transmission_sweep", sweep, check_sweep, sweep_tol,
                  lambda pairs: {"on": [x for x, _ in pairs], "off": [y for _, y in pairs]}))

    # acceptance item 6: single barrier, the op whose Chebyshev table verifies
    p6 = 0.3 * fp
    spec6 = tk.WavePacketSpec("gaussian", p=p6, sigma_p=0.01 * p6, x0=5.0 / (0.02 * p6))
    prof6 = tk.PotentialProfile.square(M, 0.5, 5.0)
    det6 = tk.DetectorSpec(position=500.0)
    vp6 = _velocity(p6)
    t_bar = (spec6.x0 + det6.position + tk.detection_phase_derivative(prof6, p6)) / vp6
    sig_t = spec6.sigma_x / vp6
    times6 = np.linspace(t_bar - 10.5 * sig_t, t_bar + 10.5 * sig_t, 801)
    item6_tol = 1e-8

    def item6(state):
        return _quiet(wavepacket.arrival_density, times6, spec6, prof6, det6,
                      rel_tol=item6_tol)

    def check_item6(dist):
        _check_density(dist.times, dist.density, det6.position, spec6.x0, spec6.sigma_x)
        t_peak, _ = max(analysis.detect_peaks(dist), key=lambda q: q[1])
        _expect(abs(t_peak - t_bar) < times6[1] - times6[0],
                "arrival peak more than one step from the stationary-phase time")
        trans = _quiet(wavepacket.total_transmission, spec6, prof6)
        _expect(abs(dist.total_mass() / trans - 1.0) <= 0.01,
                "arrival mass not within 1% of the packet transmission")
        return _density_counters(dist)

    ops.append(Op("item6_density", item6, check_item6, item6_tol,
                  lambda dist: {"P": dist.density}))
    return ops


# ---------------------------------------------------------------------------
# opaque: the one scenario that fails today (an opaque single barrier)


def opaque(workdir: Path, seed: int) -> list[Op]:
    fp, _ = perturbation(seed)
    cfg = {"name": "opaque", "barrier": {"mass": M, "segments": [{"v": 0.9, "w": 2000.0}]},
           "packet": {"shape": "gaussian", "p": 0.35 * fp, "sigma_p": 0.004, "x0": 700.0},
           "detector": {"position": 20000.0},
           "task": {"kind": "arrival-density", "n_t": 1500, "span_sigmas": 10.0}}

    def check(res):
        data = read_csv(res.artifact("arrival_density.csv"))
        _expect(np.all(np.isfinite(data[:, 1])) and np.all(data[:, 1] >= 0.0),
                "density has negative or non-finite samples")
        _expect(float(np.max(data[:, 1])) < 1e-100, "an opaque barrier transmitted")
        return {"n_times": data.shape[0]}

    return [cli_op(workdir, cfg, 1e-8, check, None)]


WORKLOADS = {
    "peak-train": peak_train,
    "figure-cli": figure_cli,
    "scans": scans,
    "opaque": opaque,
}
OP_NAMES = {
    "peak-train": ("item7_density", "item7_peaks", "item7_fit", "item7_model"),
    "figure-cli": ("quickstart", "fig2", "regime_peaks", "regime_continuum",
                   "regime_resonance", "fig5"),
    "scans": ("transmission_scan", "resonance_scan", "fig1", "transmission_sweep",
              "item6_density"),
    "opaque": ("opaque",),
}


def build(name: str, seed: int, workdir: Path) -> Workload:
    """Build a workload's inputs and, on the default seed, load its references."""
    workdir.mkdir(parents=True, exist_ok=True)
    ops = WORKLOADS[name](workdir, seed)
    if tuple(op.name for op in ops) != OP_NAMES[name]:
        raise RuntimeError(f"ops of {name} differ from OP_NAMES")
    refs = {}
    if seed == DEFAULT_SEED:
        refs = {op.name: load_refs(op.name) for op in ops if op.reference is not None}
    return Workload(name, ops, workdir, refs)
