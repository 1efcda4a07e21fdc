"""Scenario-driven command line: parse a JSON config, run one task, emit CSV
artifacts plus a JSON run manifest.

    tunnelkit run <config.json> [--out DIR]
    tunnelkit validate <config.json>

Exit codes: 0 success, 1 config error, 2 numeric failure, 3 I/O error.
All quantities in the config are in mass units (momenta/energies in m,
lengths/times in 1/m). Runs are deterministic: identical configs produce
byte-identical CSVs.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__, analysis
from .errors import ConfigError, NumericsError, PhysicsDomainError, RegimeWarning, TunnelKitError
from .kinematics import relativistic_kinematics
from .scattering import PotentialProfile, piecewise_amplitudes, tunneling_window
from .wavepacket import (DENSITY_REL_TOL, GRID_MAX_PANELS, GRID_SPAN_SIGMAS, MIN_L_OVER_D,
                         DetectorSpec, WavePacketSpec, _json_default, _mass, _write_csv,
                         arrival_density, prepanel_count, stationary_phase_time)

TASK_KINDS = ("transmission-scan", "arrival-density", "tunneling-time-scan",
              "resonance-scan", "decay-fit", "regime-compare")


# ---------------------------------------------------------------------------
# config parsing with field-path errors


def _expect(cond: bool, path: str, message: str) -> None:
    if not cond:
        raise ConfigError(message, path=path)


def _get(d: dict, key: str, path: str, required: bool = True, default=None):
    """Take d[key] out of d, a parser's copy of a config object, so that the
    fields left at the end (``_unread``) are the ones nothing reads."""
    if key not in d:
        _expect(not required, f"{path}.{key}" if path else key, "missing required field")
        return default
    return d.pop(key)


def _unread(d: dict, path: str) -> None:
    for key in d:
        raise ConfigError("unknown field", path=f"{path}.{key}" if path else key)


def _num(value, path: str, positive: bool = False) -> float:
    _expect(isinstance(value, (int, float)) and not isinstance(value, bool),
            path, f"expected a number, got {value!r}")
    v = float(value)
    _expect(math.isfinite(v), path, "must be finite")
    if positive:
        _expect(v > 0, path, f"must be positive, got {v}")
    return v


def _int(value, path: str, minimum: int = 1) -> int:
    _expect(isinstance(value, int) and not isinstance(value, bool),
            path, f"expected an integer, got {value!r}")
    _expect(value >= minimum, path, f"must be >= {minimum}, got {value}")
    return value


def _flag(value, path: str) -> bool:
    _expect(isinstance(value, bool), path, f"expected true or false, got {value!r}")
    return value


def _build(cls, path: str, **fields):
    """cls(**fields), its domain error a config error at <path>.<field>."""
    try:
        return cls(**fields)
    except PhysicsDomainError as exc:
        raise ConfigError(str(exc), path=f"{path}.{exc.field}" if exc.field else path) from exc


def _object(data, path: str) -> dict:
    """A copy of the JSON object at path, for _get to take fields out of."""
    _expect(isinstance(data, dict), path, "expected an object")
    return dict(data)


def _parse_barrier(data: dict, path: str = "barrier") -> PotentialProfile:
    data = _object(data, path)
    mass = _num(_get(data, "mass", path), f"{path}.mass")
    segs = _get(data, "segments", path)
    _unread(data, path)
    _expect(isinstance(segs, list), f"{path}.segments", "expected a list")
    parsed = []
    for i, seg in enumerate(segs):
        spath = f"{path}.segments[{i}]"
        seg = _object(seg, spath)
        parsed.append((_num(_get(seg, "v", spath), f"{spath}.v"),
                       _num(_get(seg, "w", spath), f"{spath}.w")))
        _unread(seg, spath)
    return _build(PotentialProfile, path, mass=mass, segments=tuple(parsed))


def _parse_packet(data: dict, path: str = "packet") -> WavePacketSpec:
    data = _object(data, path)
    fields = {key: _num(_get(data, key, path), f"{path}.{key}") for key in ("p", "sigma_p", "x0")}
    shape = _get(data, "shape", path, required=False, default="gaussian")
    _unread(data, path)
    return _build(WavePacketSpec, path, shape=shape, **fields)


def _parse_detector(data: dict, path: str = "detector") -> DetectorSpec:
    data = _object(data, path)
    pos = _num(_get(data, "position", path), f"{path}.position")
    absorption = _get(data, "absorption", path, required=False, default=1.0)
    _unread(data, path)
    if isinstance(absorption, dict):
        tpath, table = f"{path}.absorption", dict(absorption)
        cols = {key: _get(table, key, tpath) for key in ("k", "alpha")}
        _unread(table, tpath)
        _expect(all(isinstance(x, list) for x in cols.values()), tpath,
                "need lists 'k' and 'alpha'")
        absorption = tuple(np.array([_num(x, f"{tpath}.{key}[{i}]") for i, x in enumerate(vals)])
                           for key, vals in cols.items())
    else:
        absorption = _num(absorption, f"{path}.absorption")
    return _build(DetectorSpec, path, position=pos, absorption=absorption)


@dataclass
class Scenario:
    name: str
    task: dict
    barrier: PotentialProfile | None
    packet: WavePacketSpec | None
    detector: DetectorSpec | None
    out_dir: Path
    raw: dict
    # task fields parsed by _validate_task_params, defaults filled in
    params: dict


_TASK_NEEDS = {
    "transmission-scan": ("barrier",),
    "arrival-density": ("packet", "detector"),
    "tunneling-time-scan": (),
    "resonance-scan": ("barrier",),
    "decay-fit": ("barrier", "packet", "detector"),
    "regime-compare": ("barrier", "packet", "detector"),
}


def parse_scenario(config: dict, out_override: str | None = None) -> Scenario:
    _expect(isinstance(config, dict), "", "config root must be a JSON object")
    rest = dict(config)
    name = _get(rest, "name", "")
    _expect(isinstance(name, str) and name != "", "name", "must be a non-empty string")
    task = _get(rest, "task", "")
    fields = _object(task, "task")
    kind = _get(fields, "kind", "task")
    _expect(kind in TASK_KINDS, "task.kind",
            f"must be one of {', '.join(TASK_KINDS)}; got {kind!r}")

    sections = {}
    for key, parse in (("barrier", _parse_barrier), ("packet", _parse_packet),
                       ("detector", _parse_detector)):
        data = _get(rest, key, "", required=False)
        sections[key] = None if data is None else parse(data)
    barrier, packet, detector = sections.values()
    output = _object(_get(rest, "output", "", required=False) or {}, "output")
    out = _get(output, "dir", "output", required=False)
    _expect(out is None or isinstance(out, str), "output.dir", "expected a string")
    _unread(output, "output")
    _unread(rest, "")
    for need in _TASK_NEEDS[kind]:
        _expect(sections[need] is not None, need, f"required by task kind {kind!r}")
    if kind in ("resonance-scan", "decay-fit", "regime-compare"):
        _expect(barrier.as_symmetric_double() is not None, "barrier",
                f"task {kind!r} requires a symmetric double barrier "
                "(segments [barrier, gap, barrier])")
    if barrier is not None and detector is not None and barrier.segments:
        _expect(detector.position >= MIN_L_OVER_D * barrier.width, "detector.position",
                f"detector at {detector.position} violates the far-field "
                f"requirement L >= {MIN_L_OVER_D:g} d = {MIN_L_OVER_D * barrier.width}")

    params = _validate_task_params(kind, fields)
    if kind == "regime-compare":
        shape = analysis.REGIME_SHAPES.get(params["regime"], packet.shape)
        _expect(packet.shape == shape, "packet.shape",
                f"regime {params['regime']!r} requires a {shape} packet, got {packet.shape!r}")
    if kind == "resonance-scan" and params["k_window"] is not None:
        k_max = tunneling_window(barrier.as_symmetric_double()[0], barrier.mass)[1]
        _expect(params["k_window"][1] < k_max, "task.k_max",
                f"must lie below the tunneling-window edge {k_max}")
    if kind == "arrival-density" and "t_min" in params:
        n = prepanel_count(packet, _mass(barrier), detector.position,
                           params["t_min"], params["t_max"])
        _expect(n <= GRID_MAX_PANELS, "task.t_max",
                f"the time window needs {n:.3g} phase panels, above the panel "
                f"limit {GRID_MAX_PANELS}")

    out = out_override or out or "."
    return Scenario(name=name, task=task, barrier=barrier, packet=packet,
                    detector=detector, out_dir=Path(out), raw=config, params=params)


# default rel_tol of the kinds that integrate; the other kinds accept and ignore one
_REL_TOL = {"arrival-density": DENSITY_REL_TOL, "decay-fit": 1e-7, "regime-compare": 1e-7}
# tightest rel_tol they meet: 1e-13 no longer converges on single or double barriers
_MIN_REL_TOL = 1e-12
_SAMPLES_PER_PEAK = 12  # default time samples per peak spacing of peak-train grids


def _opt(t: dict, key: str, default, parse, **kw):
    """Optional task field: parsed when present, else its default."""
    return parse(t.pop(key), f"task.{key}", **kw) if key in t else default


def _interval(t: dict, lo: str, hi: str, positive: bool = False) -> tuple[float, float]:
    a = _num(_get(t, lo, "task"), f"task.{lo}", positive=positive)
    b = _num(_get(t, hi, "task"), f"task.{hi}", positive=positive)
    _expect(b > a, f"task.{hi}", f"must exceed task.{lo}")
    return a, b


def _validate_task_params(kind: str, t: dict) -> dict:
    """Take the fields of task kind ``kind`` out of t, a copy of the task
    object without its kind, and reject any left over; return them parsed,
    defaults filled in. The runners read only these values."""
    q = {"rel_tol": _opt(t, "rel_tol", _REL_TOL.get(kind), _num, positive=True)}
    if kind in _REL_TOL:
        _expect(q["rel_tol"] >= _MIN_REL_TOL, "task.rel_tol",
                f"must be >= {_MIN_REL_TOL:g}, got {q['rel_tol']:g}")
    if kind == "transmission-scan":
        q["k_min"], q["k_max"] = _interval(t, "k_min", "k_max", positive=True)
        q["n_k"] = _opt(t, "n_k", 200, _int, minimum=2)
    elif kind == "arrival-density":
        if "t_min" in t or "t_max" in t:
            q["t_min"], q["t_max"] = _interval(t, "t_min", "t_max")
        else:
            q["span_sigmas"] = _opt(t, "span_sigmas", GRID_SPAN_SIGMAS, _num, positive=True)
        q["n_t"] = _opt(t, "n_t", 1000, _int, minimum=4)
    elif kind == "tunneling-time-scan":
        mass = q["mass"] = _opt(t, "mass", 1.0, _num, positive=True)
        q["d"] = _num(_get(t, "d", "task"), "task.d", positive=True)
        v0s = _get(t, "v0_values", "task")
        _expect(isinstance(v0s, list) and len(v0s) >= 1, "task.v0_values",
                "need a non-empty list of barrier heights")
        q["v0_values"] = []
        for i, v0 in enumerate(v0s):
            v0 = _num(v0, f"task.v0_values[{i}]", positive=True)
            _expect(v0 < mass, f"task.v0_values[{i}]",
                    f"height {v0} must be below the mass {mass}")
            q["v0_values"].append(v0)
        q["n_p"] = _opt(t, "n_p", 200, _int, minimum=2)
    elif kind == "resonance-scan":
        q["k_window"] = (_interval(t, "k_min", "k_max", positive=True)
                         if "k_min" in t or "k_max" in t else None)
    elif kind == "decay-fit":
        q["n_peaks"] = _opt(t, "n_peaks", 15, _int, minimum=4)
        q["samples_per_peak"] = _opt(t, "samples_per_peak", _SAMPLES_PER_PEAK, _int, minimum=4)
    elif kind == "regime-compare":
        regime = q["regime"] = _get(t, "regime", "task")
        _expect(regime in ("peaks", "continuum", "resonance"), "task.regime",
                "must be 'peaks', 'continuum' or 'resonance'")
        q["n_t"] = _opt(t, "n_t", 1500, _int, minimum=16)
        q["n_peaks"] = _opt(t, "n_peaks", 10, _int, minimum=1)
        q["decay_spans"] = _opt(t, "decay_spans",
                                {"continuum": 3.0, "resonance": 2.5}.get(regime),
                                _num, positive=True)
        q["k0"] = _opt(t, "k0", None, _num, positive=True)
        q["substitute_lorentzian"] = _opt(t, "substitute_lorentzian", True, _flag)
    _unread(t, "task")
    return q


# ---------------------------------------------------------------------------
# task runners (each returns artifact paths + diagnostics dict)


def _run_transmission_scan(sc: Scenario) -> tuple[list[Path], dict]:
    q = sc.params
    k = np.linspace(q["k_min"], q["k_max"], q["n_k"])
    s = piecewise_amplitudes(sc.barrier, k)
    path = sc.out_dir / f"{sc.name}_transmission_scan.csv"
    _write_csv(path, ["k", "TkRe", "TkIm", "RkRe", "RkIm", "absA2"],
               [k, s.T.real, s.T.imag, s.R.real, s.R.imag, np.abs(s.A) ** 2])
    return [path], {"n_k": int(k.size)}


def _run_arrival_density(sc: Scenario) -> tuple[list[Path], dict]:
    q = sc.params
    if "t_min" in q:
        times = np.linspace(q["t_min"], q["t_max"], q["n_t"])
    else:
        t_bar = stationary_phase_time(sc.packet, sc.barrier, sc.detector.position)
        vp = relativistic_kinematics(sc.packet.p, _mass(sc.barrier)).velocity
        span = q["span_sigmas"] * sc.packet.sigma_x / vp
        times = np.linspace(t_bar - span, t_bar + span, q["n_t"])
    dist = arrival_density(times, sc.packet, sc.barrier, sc.detector, rel_tol=q["rel_tol"])
    path = sc.out_dir / f"{sc.name}_arrival_density.csv"
    dist.write_csv(path)
    sidecar = sc.out_dir / f"{sc.name}_arrival_density.json"
    dist.metadata["config"] = sc.raw
    dist.write_sidecar(sidecar)
    return [path, sidecar], {"quadrature": dist.metadata["quadrature"],
                             "total_mass": dist.total_mass()}


def _run_tunneling_time_scan(sc: Scenario) -> tuple[list[Path], dict]:
    q = sc.params
    m, d, n_p = q["mass"], q["d"], q["n_p"]
    paths = []
    for v0 in q["v0_values"]:
        k_hi = tunneling_window(v0, m)[1]
        ps = np.linspace(k_hi * 1e-3, k_hi * (1.0 - 1e-9), n_p)
        taus = analysis.square_barrier_tunneling_time(ps, v0, d, m)
        path = sc.out_dir / f"{sc.name}_tunneling_time_V0_{v0!r}.csv"
        _write_csv(path, ["p", "tau"], [ps, taus])
        paths.append(path)
    return paths, {"n_curves": len(paths), "n_p": n_p}


def _run_resonance_scan(sc: Scenario) -> tuple[list[Path], dict]:
    v0, a, r = sc.barrier.as_symmetric_double()
    m = sc.barrier.mass
    ks = analysis.find_resonances(v0, a, r, m, k_window=sc.params["k_window"])
    absT = piecewise_amplitudes(sc.barrier, ks).T_abs
    path = sc.out_dir / f"{sc.name}_resonance_scan.csv"
    _write_csv(path, ["n", "k_n", "absT"], [np.arange(ks.size), ks, absT])
    return [path], {"n_resonances": int(ks.size)}


def _run_decay_fit(sc: Scenario) -> tuple[list[Path], dict]:
    q = sc.params
    n_peaks = q["n_peaks"]
    v0, a, r = sc.barrier.as_symmetric_double()
    rep = analysis.double_barrier_report(sc.packet.p, v0, a, r, sc.barrier.mass,
                                         L=sc.detector.position, x0=sc.packet.x0,
                                         sigma_p=sc.packet.sigma_p)
    n_t = max((n_peaks + 3) * q["samples_per_peak"], 64)
    times = np.linspace(rep.t0 - 2.0 * rep.dt, rep.t0 + (n_peaks + 0.5) * rep.dt, n_t)
    dist = arrival_density(times, sc.packet, sc.barrier, sc.detector, rel_tol=q["rel_tol"])
    peaks = analysis.detect_peaks(dist)
    fit = analysis.fit_exponential(dist, (rep.t0 - 0.5 * rep.dt, times[-1]),
                                   on_peaks=True)
    spacing = float(np.mean(np.diff([tp for tp, _ in peaks]))) if len(peaks) > 1 else float("nan")
    first_peak = peaks[0][0] if peaks else float("nan")
    path = sc.out_dir / f"{sc.name}_decay_fit.csv"
    _write_csv(path, ["quantity", "value"],
               [("t0", "dt", "gamma_fit", "gamma_formula", "r2"),
                (first_peak, spacing, fit.rate, rep.gamma_p, fit.r_squared)])
    dens_path = sc.out_dir / f"{sc.name}_decay_fit_density.csv"
    dist.write_csv(dens_path)
    return [path, dens_path], {"quadrature": dist.metadata["quadrature"],
                               "n_peaks_found": len(peaks),
                               "report": rep.to_dict()}


def _run_regime_compare(sc: Scenario) -> tuple[list[Path], dict]:
    q = sc.params
    regime, n_t = q["regime"], q["n_t"]
    v0, a, r = sc.barrier.as_symmetric_double()
    m = sc.barrier.mass
    spec = sc.packet
    L = sc.detector.position
    rep = analysis.double_barrier_report(spec.p, v0, a, r, m, L=L, x0=spec.x0,
                                         sigma_p=spec.sigma_p)
    vp = relativistic_kinematics(spec.p, m).velocity
    trans = 1.0 / (spec.sigma_p * vp)  # duration of the packet's arrival transient
    diagnostics: dict = {"regime": regime, "report": rep.to_dict()}
    substitution = None

    if regime == "peaks":
        n_peaks = q["n_peaks"]
        times = np.linspace(rep.t0 - 2.0 * rep.dt, rep.t0 + (n_peaks + 0.5) * rep.dt,
                            max(n_t, (n_peaks + 3) * _SAMPLES_PER_PEAK))
        model = analysis.peak_series_density(times, spec, L, v0, a, r, m)
    elif regime == "continuum":
        t_hi = rep.t0 + q["decay_spans"] / rep.gamma_p
        times = np.linspace(rep.t0 - 4.0 * trans, t_hi, n_t)
        model = analysis.continuum_density(times, spec, L, v0, a, r, m)
    else:
        k0 = q["k0"]
        if k0 is None:
            res = analysis.find_resonances(v0, a, r, m)
            if res.size == 0:
                raise NumericsError("no resonances inside the tunneling window")
            k0 = float(res[int(np.argmin(np.abs(res - spec.p)))])
        gamma_k0 = analysis.decay_rate(k0, v0, a, r, m)
        t_hi = rep.t0 + q["decay_spans"] / gamma_k0
        times = np.linspace(rep.t0 - 3.0 * trans, t_hi, n_t)
        model = analysis.resonance_density(times, spec, L, k0, v0, a, r, m)
        diagnostics["k0"] = k0
        diagnostics["gamma_k0"] = gamma_k0
        if q["substitute_lorentzian"]:
            def substitution(k):
                return analysis.lorentzian_detection_amplitude(k, k0, gamma_k0, v0, a, m)

    direct = arrival_density(times, spec, sc.barrier, sc.detector, rel_tol=q["rel_tol"],
                             detection_amplitude=substitution)
    peak = float(np.max(direct.density))
    floor = 1e-12 * peak
    rel = np.abs(direct.density - model.density) / np.maximum(direct.density, floor)
    ts_path = sc.out_dir / f"{sc.name}_regime_compare.csv"
    _write_csv(ts_path, ["t", "P_direct", "P_model", "rel_diff"],
               [times, direct.density, model.density, rel])

    pairs = [("t0_formula", rep.t0), ("dt_formula", rep.dt),
             ("gamma_formula", rep.gamma_p),
             ("t0_direct", times[int(np.argmax(direct.density))]),
             ("t0_model", times[int(np.argmax(model.density))])]
    if regime == "peaks":
        for label, dist in (("direct", direct), ("model", model)):
            pk = analysis.detect_peaks(dist)
            if len(pk) >= 4:
                pairs.append((f"dt_{label}", float(np.mean(np.diff([x for x, _ in pk])))))
                fit = analysis.fit_exponential(dist, (rep.t0 - 0.5 * rep.dt, times[-1]),
                                               on_peaks=True)
                pairs += [(f"gamma_{label}", fit.rate), (f"r2_{label}", fit.r_squared)]
    else:
        gamma_ref = diagnostics.get("gamma_k0", rep.gamma_p)
        # past the transient, but leave a usable stretch of tail to fit
        start = rep.t0 + min(8.0 * trans, 0.4 * (float(times[-1]) - rep.t0))
        window = (start, float(times[-1]))
        for label, dist in (("direct", direct), ("model", model)):
            fit = analysis.fit_exponential(dist, window)
            pairs += [(f"gamma_{label}", fit.rate), (f"r2_{label}", fit.r_squared)]
        pairs.append(("gamma_reference", gamma_ref))
    sm_path = sc.out_dir / f"{sc.name}_regime_summary.csv"
    _write_csv(sm_path, ["quantity", "value"], zip(*pairs))
    diagnostics["quadrature"] = direct.metadata["quadrature"]
    return [ts_path, sm_path], diagnostics


_RUNNERS = {
    "transmission-scan": _run_transmission_scan,
    "arrival-density": _run_arrival_density,
    "tunneling-time-scan": _run_tunneling_time_scan,
    "resonance-scan": _run_resonance_scan,
    "decay-fit": _run_decay_fit,
    "regime-compare": _run_regime_compare,
}


# ---------------------------------------------------------------------------
# entry points


def run_scenario(sc: Scenario) -> dict:
    """Execute one scenario; returns the manifest dict (also written to disk)."""
    sc.out_dir.mkdir(parents=True, exist_ok=True)
    captured: list[dict] = []
    start = time.perf_counter()
    with warnings.catch_warnings(record=True) as wrec:
        warnings.simplefilter("always")
        artifacts, diagnostics = _RUNNERS[sc.task["kind"]](sc)
        for w in wrec:
            if isinstance(w.message, RegimeWarning):
                captured.append(w.message.payload())
            else:
                captured.append({"code": "generic", "message": str(w.message),
                                 "context": {}})
    elapsed = time.perf_counter() - start
    manifest = {
        "name": sc.name,
        "tunnelkit_version": __version__,
        "config": sc.raw,
        "task": sc.task["kind"],
        "artifacts": [p.name for p in artifacts],
        "timings": {"total_s": elapsed},
        "diagnostics": diagnostics,
        "warnings": captured,
    }
    manifest_path = sc.out_dir / f"{sc.name}_manifest.json"
    with open(manifest_path, "w", encoding="utf-8") as f:
        json.dump(manifest, f, indent=2, sort_keys=True, default=_json_default)
        f.write("\n")
    return manifest


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON: {exc}", path=path) from exc


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="tunnelkit",
        description="Arrival-time densities for relativistic tunneling "
                    "(all quantities in particle-mass units)")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run a scenario config")
    p_run.add_argument("config")
    p_run.add_argument("--out", default=None, help="output directory override")
    p_val = sub.add_parser("validate", help="schema-check a scenario config")
    p_val.add_argument("config")
    args = parser.parse_args(argv)

    try:
        config = _load_config(args.config)
        scenario = parse_scenario(config,
                                  out_override=getattr(args, "out", None))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3

    if args.command == "validate":
        print(f"ok: {scenario.name} ({scenario.task['kind']})")
        return 0

    try:
        manifest = run_scenario(scenario)
    except TunnelKitError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    print(f"wrote {len(manifest['artifacts'])} artifacts + manifest to "
          f"{scenario.out_dir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
