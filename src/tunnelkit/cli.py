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
import functools
import json
import math
import sys
import time
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import __version__, _quadrature, analysis
from .errors import ConfigError, PhysicsDomainError, RegimeWarning, TunnelKitError
from .kinematics import relativistic_kinematics
from .scattering import PotentialProfile, piecewise_amplitudes, tunneling_window
from .wavepacket import (DENSITY_REL_TOL, GRID_SPAN_SIGMAS, DetectorSpec, WavePacketSpec,
                         _write_csv, _write_json, arrival_density, prepanel_count,
                         stationary_phase_time)


# ---------------------------------------------------------------------------
# config parsing with field-path errors


def _expect(cond: bool, path: str, message: str) -> None:
    if not cond:
        raise ConfigError(message, path=path)


def _get(d: dict, key: str, path: str, parse=None, default=..., **kw):
    """Take d[key] out of d, a parser's copy of a config object, so that the
    fields left at the end (``_unread``) are the ones nothing reads. A present
    field is parse(value, "<path>.<key>", **kw) when parse is given; a missing
    one is ``default``, or an error when that is ``...`` (required)."""
    where = f"{path}.{key}" if path else key
    if key not in d:
        _expect(default is not ..., where, "missing required field")
        return default
    return parse(d.pop(key), where, **kw) if parse else d.pop(key)


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


def _build(make, path: str, **fields):
    """make(**fields), its domain error a config error at <path>.<field>."""
    try:
        return make(**fields)
    except PhysicsDomainError as exc:
        raise ConfigError(str(exc), path=f"{path}.{exc.field}" if exc.field else path) from exc


def _object(data, path: str) -> dict:
    """A copy of the JSON object at path, for _get to take fields out of."""
    _expect(isinstance(data, dict), path, "expected an object")
    return dict(data)


def _parse_barrier(data: dict, path: str = "barrier") -> PotentialProfile:
    data = _object(data, path)
    mass = _get(data, "mass", path, _num)
    segs = _get(data, "segments", path)
    _unread(data, path)
    _expect(isinstance(segs, list), f"{path}.segments", "expected a list")
    parsed = []
    for i, seg in enumerate(segs):
        spath = f"{path}.segments[{i}]"
        seg = _object(seg, spath)
        parsed.append((_get(seg, "v", spath, _num), _get(seg, "w", spath, _num)))
        _unread(seg, spath)
    return _build(PotentialProfile, path, mass=mass, segments=tuple(parsed))


def _parse_packet(data: dict, path: str = "packet") -> WavePacketSpec:
    data = _object(data, path)
    fields = {key: _get(data, key, path, _num) for key in ("p", "sigma_p", "x0")}
    shape = _get(data, "shape", path, default="gaussian")
    _unread(data, path)
    return _build(WavePacketSpec, path, shape=shape, **fields)


def _parse_detector(data: dict, path: str = "detector") -> DetectorSpec:
    data = _object(data, path)
    pos = _get(data, "position", path, _num)
    absorption = _get(data, "absorption", path, default=1.0)
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
    kind: str
    barrier: PotentialProfile
    packet: WavePacketSpec | None
    detector: DetectorSpec | None
    out_dir: Path
    raw: dict
    # task fields parsed by _validate_task_params, defaults filled in (k0 by parse_scenario),
    # and the "report" and "decay_grid" that parse_scenario builds for the runners
    params: dict


def _below_window_edge(barrier: PotentialProfile, k: float, path: str) -> None:
    """k must lie below the tunneling-window edge of the double barrier's height."""
    k_max = tunneling_window(barrier.as_symmetric_double()[0], barrier.mass)[1]
    _expect(k < k_max, path, f"must lie below the tunneling-window edge {k_max}")


def _closed_form_momentum(barrier: PotentialProfile, k: float, path: str) -> None:
    """k must lie in the tunneling window, above the momenta where E - m, as
    barrier_functions forms it, rounds to 0 and the closed forms fail."""
    _below_window_edge(barrier, k, path)
    _expect(np.hypot(k, barrier.mass) - barrier.mass > 0.0, path,
            f"k = {k}: E - m underflows to 0, so the closed forms do not apply")


_SECTION_PARSERS = {"barrier": _parse_barrier, "packet": _parse_packet,
                    "detector": _parse_detector}


def parse_scenario(config: dict, out_override: str | None = None) -> Scenario:
    """The checked scenario of ``config``."""
    _expect(isinstance(config, dict), "", "config root must be a JSON object")
    rest = dict(config)
    name = _get(rest, "name", "")
    _expect(isinstance(name, str) and name != "", "name", "must be a non-empty string")
    # every artifact path is <out>/<name>_<suffix>
    _expect("/" not in name and "\\" not in name, "name",
            f"must not contain '/' or '\\', got {name!r}")
    _expect("\0" not in name, "name", "must not contain a NUL character")
    fields = _get(rest, "task", "", _object)
    kind = _get(fields, "kind", "task")
    _expect(kind in _TASKS, "task.kind", f"must be one of {', '.join(_TASKS)}; got {kind!r}")

    sections = dict.fromkeys(_SECTION_PARSERS)
    for key in _TASKS[kind].sections:
        data = _get(rest, key, "", default=None)
        _expect(data is not None or (kind, key) == ("arrival-density", "barrier"),
                key, f"required by task kind {kind!r}")
        if data is not None:
            sections[key] = _SECTION_PARSERS[key](data)
    barrier, packet, detector = sections.values()
    output = _get(rest, "output", "", default=None)
    output = _object({} if output is None else output, "output")
    out = _get(output, "dir", "output", default=None)
    _expect(out is None or isinstance(out, str), "output.dir", "expected a string")
    _expect(out is None or "\0" not in out, "output.dir", "must not contain a NUL character")
    _unread(output, "output")
    _unread(rest, "")
    if barrier is None:  # a free run, in units of the particle mass
        barrier = PotentialProfile(1.0, ())
    if kind in ("resonance-scan", "decay-fit", "regime-compare"):
        _expect(barrier.as_symmetric_double() is not None, "barrier",
                f"task {kind!r} requires a symmetric double barrier "
                "(segments [barrier, gap, barrier])")
    if detector is not None:
        _build(detector.check_far_field, "detector", profile=barrier)

    params = _validate_task_params(kind, fields)
    if kind == "regime-compare":
        shape = analysis.REGIME_SHAPES.get(params["regime"], packet.shape)
        _expect(packet.shape == shape, "packet.shape",
                f"regime {params['regime']!r} requires a {shape} packet, got {packet.shape!r}")
    if kind == "resonance-scan" and params["k_window"] is not None:
        _below_window_edge(barrier, params["k_window"][1], "task.k_max")
    if kind in ("decay-fit", "regime-compare"):
        _closed_form_momentum(barrier, packet.p, "packet.p")
        rep = params["report"] = analysis.double_barrier_report(
            packet.p, *barrier.as_symmetric_double(), barrier.mass, L=detector.position,
            x0=packet.x0, sigma_p=packet.sigma_p)
        _expect(kind == "regime-compare" or rep.gamma_p > 0.0, "packet.p",
                "the escape rate at p is 0 (|T0|^2 underflows), so the arrival "
                "density has no peaks to fit")
    if params.get("k0") is not None:
        _closed_form_momentum(barrier, params["k0"], "task.k0")
    elif params.get("regime") == "resonance":
        res = analysis.find_resonances(*barrier.as_symmetric_double(), barrier.mass)
        _expect(res.size > 0, "task.k0", "no resonances inside the tunneling window")
        params["k0"] = float(res[int(np.argmin(np.abs(res - packet.p)))])
    if "decay_spans" in params:
        params["decay_grid"] = _decay_grid(packet, rep, params)
    if kind == "arrival-density" and "t_min" in params:
        n = prepanel_count(packet, barrier.mass, detector.position,
                           params["t_min"], params["t_max"])
        _expect(n <= _quadrature.MAX_PANELS, "task.t_max",
                f"the time window needs {n:.3g} phase panels, above the panel "
                f"limit {_quadrature.MAX_PANELS}")

    out = out_override or out or "."
    return Scenario(name=name, kind=kind, barrier=barrier, packet=packet,
                    detector=detector, out_dir=Path(out), raw=config, params=params)


# tightest rel_tol they meet: 1e-13 no longer converges on single or double barriers
_MIN_REL_TOL = 1e-12
_SAMPLES_PER_PEAK = 12  # default time samples per peak spacing of peak-train grids


def _interval(t: dict, lo: str, hi: str, positive: bool = False) -> tuple[float, float]:
    a = _get(t, lo, "task", _num, positive=positive)
    b = _get(t, hi, "task", _num, positive=positive)
    _expect(b > a, f"task.{hi}", f"must exceed task.{lo}")
    return a, b


def _validate_task_params(kind: str, t: dict) -> dict:
    """Take the fields of task kind ``kind`` out of t, a copy of the task
    object without its kind, and reject any left over; return them parsed,
    defaults filled in. The runners read only these values."""
    q = {}
    if _TASKS[kind].rel_tol is not None:
        q["rel_tol"] = _get(t, "rel_tol", "task", _num, _TASKS[kind].rel_tol,
                            positive=True)
        _expect(q["rel_tol"] >= _MIN_REL_TOL, "task.rel_tol",
                f"must be >= {_MIN_REL_TOL:g}, got {q['rel_tol']:g}")
    if kind == "transmission-scan":
        q["k_min"], q["k_max"] = _interval(t, "k_min", "k_max", positive=True)
        q["n_k"] = _get(t, "n_k", "task", _int, 200, minimum=2)
    elif kind == "arrival-density":
        if "t_min" in t or "t_max" in t:
            q["t_min"], q["t_max"] = _interval(t, "t_min", "t_max")
        else:
            q["span_sigmas"] = _get(t, "span_sigmas", "task", _num, GRID_SPAN_SIGMAS,
                                    positive=True)
        q["n_t"] = _get(t, "n_t", "task", _int, 1000, minimum=4)
    elif kind == "tunneling-time-scan":
        mass = q["mass"] = _get(t, "mass", "task", _num, 1.0, positive=True)
        q["d"] = _get(t, "d", "task", _num, positive=True)
        v0s = _get(t, "v0_values", "task")
        _expect(isinstance(v0s, list) and len(v0s) >= 1, "task.v0_values",
                "need a non-empty list of barrier heights")
        q["v0_values"] = []
        for i, v0 in enumerate(v0s):
            v0 = _num(v0, f"task.v0_values[{i}]", positive=True)
            _expect(v0 < mass, f"task.v0_values[{i}]",
                    f"height {v0} must be below the mass {mass}")
            _expect(v0 not in q["v0_values"], f"task.v0_values[{i}]",
                    f"height {v0} repeats an earlier one")
            q["v0_values"].append(v0)
        q["n_p"] = _get(t, "n_p", "task", _int, 200, minimum=2)
    elif kind == "resonance-scan":
        q["k_window"] = (_interval(t, "k_min", "k_max", positive=True)
                         if "k_min" in t or "k_max" in t else None)
    elif kind == "decay-fit":
        q["n_peaks"] = _get(t, "n_peaks", "task", _int, 15, minimum=4)
        q["samples_per_peak"] = _get(t, "samples_per_peak", "task", _int, _SAMPLES_PER_PEAK,
                                     minimum=4)
    elif kind == "regime-compare":
        regime = q["regime"] = _get(t, "regime", "task")
        _expect(regime in ("peaks", "continuum", "resonance"), "task.regime",
                "must be 'peaks', 'continuum' or 'resonance'")
        q["n_t"] = _get(t, "n_t", "task", _int, 1500, minimum=16)
        if regime == "peaks":
            q["n_peaks"] = _get(t, "n_peaks", "task", _int, 10, minimum=1)
        else:
            q["decay_spans"] = _get(t, "decay_spans", "task", _num,
                                    {"continuum": 3.0, "resonance": 2.5}[regime], positive=True)
        if regime == "resonance":
            q["k0"] = _get(t, "k0", "task", _num, None, positive=True)
            q["substitute_lorentzian"] = _get(t, "substitute_lorentzian", "task", _flag, True)
    _unread(t, "task")
    return q


# ---------------------------------------------------------------------------
# task runners (each returns artifact paths + diagnostics dict)


_SCAN_BLOCK = 8192  # momenta per amplitude evaluation of a transmission scan


def _run_transmission_scan(sc: Scenario) -> tuple[list[Path], dict]:
    q = sc.params
    k_min, k_max, n_k = q["k_min"], q["k_max"], q["n_k"]
    step = (k_max - k_min) / (n_k - 1)

    def blocks():
        # np.linspace(k_min, k_max, n_k) one block at a time, to the last bit
        for i in range(0, n_k, _SCAN_BLOCK):
            k = np.arange(i, min(i + _SCAN_BLOCK, n_k)) * step + k_min
            if i + k.size == n_k:
                k[-1] = k_max
            s = piecewise_amplitudes(sc.barrier, k)
            yield k, s.T.real, s.T.imag, s.R.real, s.R.imag, np.abs(s.A) ** 2

    path = sc.out_dir / f"{sc.name}_transmission_scan.csv"
    _write_csv(path, ["k", "TkRe", "TkIm", "RkRe", "RkIm", "absA2"], blocks())
    return [path], {"n_k": n_k}


def _run_arrival_density(sc: Scenario) -> tuple[list[Path], dict]:
    q = sc.params
    if "t_min" in q:
        times = np.linspace(q["t_min"], q["t_max"], q["n_t"])
    else:
        t_bar = stationary_phase_time(sc.packet, sc.barrier, sc.detector.position)
        vp = relativistic_kinematics(sc.packet.p, sc.barrier.mass).velocity
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
        _write_csv(path, ["p", "tau"], [(ps, taus)])
        paths.append(path)
    return paths, {"n_curves": len(paths), "n_p": n_p}


def _run_resonance_scan(sc: Scenario) -> tuple[list[Path], dict]:
    v0, a, r = sc.barrier.as_symmetric_double()
    m = sc.barrier.mass
    ks = analysis.find_resonances(v0, a, r, m, k_window=sc.params["k_window"])
    absT = np.abs(piecewise_amplitudes(sc.barrier, ks).T)
    path = sc.out_dir / f"{sc.name}_resonance_scan.csv"
    _write_csv(path, ["n", "k_n", "absT"], [(np.arange(ks.size), ks, absT)])
    return [path], {"n_resonances": int(ks.size)}


def _decay_grid(packet: WavePacketSpec, rep: analysis.RegimeReport, q: dict):
    """(gamma, times, fit window) of a continuum or resonance regime-compare
    run: gamma the escape rate at p (continuum) or k0 (resonance); n_t times
    from 4 (continuum) or 3 (resonance) packet transients before t0 to
    decay_spans decay times 1/gamma past it; the fit window from past the
    transient, but over at least the last 60% of that tail, to the last time.
    A zero gamma, where |T0|^2 underflows, is a config error: no decay to fit.
    So is a window that holds fewer than FIT_MIN_SAMPLES of the times."""
    trans = 1.0 / (packet.sigma_p * relativistic_kinematics(packet.p, rep.mass).velocity)
    if q["regime"] == "continuum":
        gamma, lead = rep.gamma_p, 4.0
    else:
        gamma, lead = analysis.decay_rate(q["k0"], rep.v0, rep.a, rep.r, rep.mass), 3.0
    _expect(gamma > 0.0, "task.regime",
            f"the escape rate of the {q['regime']} regime is 0 (|T0|^2 underflows), "
            "so there is no decay to fit: the peaks regime applies")
    times = np.linspace(rep.t0 - lead * trans, rep.t0 + q["decay_spans"] / gamma, q["n_t"])
    t_end = float(times[-1])
    start = rep.t0 + min(8.0 * trans, 0.4 * (t_end - rep.t0))
    n = int(np.count_nonzero((times >= start) & (times <= t_end)))
    _expect(n >= analysis.FIT_MIN_SAMPLES, "task.decay_spans",
            f"the decay fit needs {analysis.FIT_MIN_SAMPLES} of the n_t = {q['n_t']} "
            f"times in its window [{start:.6g}, {t_end:.6g}], and {n} lie there: "
            "raise decay_spans or n_t")
    return gamma, times, (start, t_end)


def _peak_train_times(rep, n_peaks: int, per_peak: int, n_min: int) -> np.ndarray:
    """At least n_min times, per_peak to a peak spacing, over t0 - 2dt ...
    t0 + (n_peaks + 1/2)dt: the first n_peaks peaks of the train."""
    return np.linspace(rep.t0 - 2.0 * rep.dt, rep.t0 + (n_peaks + 0.5) * rep.dt,
                       max((n_peaks + 3) * per_peak, n_min))


def _peak_fit(dist, rep, min_peaks: int = 0):
    """(peaks, mean spacing, fit) of a peak train, the fit on the peaks past
    t0 - dt/2; None when fewer than min_peaks peaks are found."""
    peaks = analysis.detect_peaks(dist)
    if len(peaks) < min_peaks:
        return None
    fit = analysis.fit_exponential(dist, (rep.t0 - 0.5 * rep.dt, dist.times[-1]), on_peaks=True)
    return peaks, float(np.mean(np.diff([tp for tp, _ in peaks]))), fit


def _run_decay_fit(sc: Scenario) -> tuple[list[Path], dict]:
    q = sc.params
    rep = q["report"]
    times = _peak_train_times(rep, q["n_peaks"], q["samples_per_peak"], 64)
    dist = arrival_density(times, sc.packet, sc.barrier, sc.detector, rel_tol=q["rel_tol"])
    peaks, spacing, fit = _peak_fit(dist, rep)
    path = sc.out_dir / f"{sc.name}_decay_fit.csv"
    _write_csv(path, ["quantity", "value"],
               [(("t0", "dt", "gamma_fit", "gamma_formula", "r2"),
                 (peaks[0][0], spacing, fit.rate, rep.gamma_p, fit.r_squared))])
    dens_path = sc.out_dir / f"{sc.name}_decay_fit_density.csv"
    dist.write_csv(dens_path)
    return [path, dens_path], {"quadrature": dist.metadata["quadrature"],
                               "n_peaks_found": len(peaks),
                               "report": rep.to_dict()}


def _run_regime_compare(sc: Scenario) -> tuple[list[Path], dict]:
    q = sc.params
    regime, n_t = q["regime"], q["n_t"]
    spec = sc.packet
    L = sc.detector.position
    rep = q["report"]
    v0, a, r, m = rep.v0, rep.a, rep.r, rep.mass
    diagnostics: dict = {"regime": regime, "report": rep.to_dict()}
    substitution = None

    if regime == "peaks":
        times = _peak_train_times(rep, q["n_peaks"], _SAMPLES_PER_PEAK, n_t)
        model = analysis.peak_series_density(times, spec, L, v0, a, r, m)
    else:
        gamma, times, window = q["decay_grid"]
        if regime == "continuum":
            model = analysis.continuum_density(times, spec, L, v0, a, r, m)
        else:
            k0 = q["k0"]
            model = analysis.resonance_density(times, spec, L, k0, v0, a, r, m)
            diagnostics.update(k0=k0, gamma_k0=gamma)
            if q["substitute_lorentzian"]:
                def substitution(k):
                    return analysis.lorentzian_detection_amplitude(k, k0, gamma, v0, a, m)

    direct = arrival_density(times, spec, sc.barrier, sc.detector, rel_tol=q["rel_tol"],
                             detection_amplitude=substitution)
    peak = float(np.max(direct.density))
    floor = 1e-12 * peak or 1.0  # an all-zero run (no_signal) gives rel_diff 0
    rel = np.abs(direct.density - model.density) / np.maximum(direct.density, floor)
    ts_path = sc.out_dir / f"{sc.name}_regime_compare.csv"
    _write_csv(ts_path, ["t", "P_direct", "P_model", "rel_diff"],
               [(times, direct.density, model.density, rel)])

    pairs = [("t0_formula", rep.t0), ("dt_formula", rep.dt), ("gamma_formula", rep.gamma_p)]
    for label, dist in (("direct", direct), ("model", model)):
        i = int(np.argmax(dist.density))  # a density without signal has no peak time
        pairs.append((f"t0_{label}", times[i] if dist.density[i] > 0 else math.nan))
    if regime == "peaks":
        for label, dist in (("direct", direct), ("model", model)):
            found = _peak_fit(dist, rep, min_peaks=4)
            if found is not None:
                _, spacing, fit = found
                pairs += [(f"dt_{label}", spacing), (f"gamma_{label}", fit.rate),
                          (f"r2_{label}", fit.r_squared)]
    else:
        for label, dist in (("direct", direct), ("model", model)):
            fit = analysis.fit_exponential(dist, window)
            pairs += [(f"gamma_{label}", fit.rate), (f"r2_{label}", fit.r_squared)]
        pairs.append(("gamma_reference", gamma))
    sm_path = sc.out_dir / f"{sc.name}_regime_summary.csv"
    _write_csv(sm_path, ["quantity", "value"], [zip(*pairs)])
    diagnostics["quadrature"] = direct.metadata["quadrature"]
    return [ts_path, sm_path], diagnostics


class _Task(NamedTuple):
    sections: tuple[str, ...]  # read, each required but the barrier of a free arrival density
    rel_tol: float | None  # default of a kind that integrates, the only kinds that take one
    run: Callable[[Scenario], tuple[list[Path], dict]]


_ALL = ("barrier", "packet", "detector")
_TASKS = {
    "transmission-scan": _Task(("barrier",), None, _run_transmission_scan),
    "arrival-density": _Task(_ALL, DENSITY_REL_TOL, _run_arrival_density),
    "tunneling-time-scan": _Task((), None, _run_tunneling_time_scan),
    "resonance-scan": _Task(("barrier",), None, _run_resonance_scan),
    "decay-fit": _Task(_ALL, 1e-7, _run_decay_fit),
    "regime-compare": _Task(_ALL, 1e-7, _run_regime_compare),
}


# ---------------------------------------------------------------------------
# entry points


def run_scenario(sc: Scenario, recorded: list) -> dict:
    """Run one scenario; return and write its manifest, listing the warnings ``recorded``."""
    sc.out_dir.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    artifacts, diagnostics = _TASKS[sc.kind].run(sc)
    payloads = [w.message.payload() if isinstance(w.message, RegimeWarning) else
                {"code": "generic", "message": str(w.message), "context": {}}
                for w in recorded]
    captured = [p for i, p in enumerate(payloads) if p not in payloads[:i]]  # each warning once
    elapsed = time.perf_counter() - start
    manifest = {
        "name": sc.name,
        "tunnelkit_version": __version__,
        "config": sc.raw,
        "task": sc.kind,
        "artifacts": [p.name for p in artifacts],
        "timings": {"total_s": elapsed},
        "diagnostics": diagnostics,
        "warnings": captured,
    }
    _write_json(sc.out_dir / f"{sc.name}_manifest.json", manifest)
    return manifest


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"invalid JSON: {exc}", path=path) from exc


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call of a process."""
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
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)

    try:
        with warnings.catch_warnings(record=True) as recorded:  # shown only in the manifest
            warnings.simplefilter("always")
            scenario = parse_scenario(_load_config(args.config),
                                      out_override=getattr(args, "out", None))
            if args.command == "validate":
                print(f"ok: {scenario.name} ({scenario.kind})")
                return 0
            manifest = run_scenario(scenario, recorded)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except TunnelKitError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # any other exception is a bug: one line and exit 4
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4
    print(f"wrote {len(manifest['artifacts'])} artifacts + manifest to "
          f"{scenario.out_dir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
