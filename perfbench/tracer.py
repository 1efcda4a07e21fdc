"""Stdlib span recorder that measures tunnelkit's layers from outside.

Layers are the package modules. ``install`` replaces each layer entry point,
under the name the *calling* module looks it up by, with a wrapper that
records a span: name, layer, start, end, parent span and a work count taken
from the call's arguments or result. ``wavepacket`` binds
``detection_amplitude_scan`` at import (``from .scattering import ...``), so
the scattering span for that call is ``wavepacket.detection_amplitude_scan``.
Functions reached through a module object (``_quadrature.panel_nodes``,
``analysis.detect_peaks``) are wrapped on that module, which also catches the
module's calls to itself; those nest inside the same layer and leave its self
time unchanged.

A target that no longer exists is listed in ``Recorder.absent`` and skipped,
so a later version that deletes a module still runs the benchmark.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
from collections import defaultdict
from time import perf_counter

import numpy as np

LAYERS = ("wavepacket", "scattering", "quadrature", "chebyshev", "analysis",
          "kinematics", "cli")
# functions that write artifacts; their spans make up cli.write_s
WRITERS = ("cli._write_csv", "cli._write_kv_csv", "wavepacket.ArrivalDistribution.write_csv",
           "wavepacket.ArrivalDistribution.write_sidecar")


def _size(x) -> int:
    return int(np.size(x))


def nodes_per_panel() -> int:
    """Quadrature nodes per panel (Kronrod 15 today)."""
    try:
        return int(importlib.import_module("tunnelkit._quadrature").NODES_PER_PANEL)
    except (ImportError, AttributeError):
        return 15


def _nodes_of_density(args, kwargs, result) -> int:
    """Final quadrature nodes of an arrival_density call."""
    return int(result.metadata.get("quadrature", {}).get("panels", 0)) * nodes_per_panel()


def _stencil_momenta(args, kwargs, result) -> int:
    profile = args[0] if args else kwargs.get("profile")
    return 4 if profile is not None and profile.segments else 0


def _size_of_arg(i):
    return lambda args, kwargs, result: _size(args[i]) if len(args) > i else 0


def _calls(args, kwargs, result) -> int:
    return 1


# (calling module, attribute looked up there, layer, work count or None)
TARGETS = [
    ("tunnelkit.cli", "main", "cli", None),
    ("tunnelkit.cli", "_write_csv", "cli", None),
    ("tunnelkit.cli", "_write_kv_csv", "cli", None),
    ("tunnelkit.cli", "arrival_density", "wavepacket", _nodes_of_density),
    ("tunnelkit.wavepacket", "arrival_density", "wavepacket", _nodes_of_density),
    ("tunnelkit.wavepacket", "total_transmission", "wavepacket", None),
    ("tunnelkit.wavepacket", "stationary_phase_time", "wavepacket", None),
    ("tunnelkit.wavepacket", "ArrivalDistribution.write_csv", "wavepacket", None),
    ("tunnelkit.wavepacket", "ArrivalDistribution.write_sidecar", "wavepacket", None),
    ("tunnelkit.cli", "amplitude_scan", "scattering", _size_of_arg(1)),
    ("tunnelkit.cli", "piecewise_amplitudes", "scattering", _size_of_arg(1)),
    ("tunnelkit.cli", "tunneling_window", "scattering", None),
    ("tunnelkit.wavepacket", "detection_amplitude_scan", "scattering", _size_of_arg(1)),
    ("tunnelkit.wavepacket", "detection_phase_derivative", "scattering", _stencil_momenta),
    ("tunnelkit.analysis", "barrier_functions", "scattering", _size_of_arg(0)),
    ("tunnelkit.analysis", "detection_phase_derivative", "scattering", _stencil_momenta),
    ("tunnelkit.analysis", "piecewise_amplitudes", "scattering", _size_of_arg(1)),
    ("tunnelkit.analysis", "square_barrier_amplitudes", "scattering", _size_of_arg(0)),
    ("tunnelkit.analysis", "tunneling_window", "scattering", None),
    ("tunnelkit.analysis", "_transfer_TR", "scattering", _size_of_arg(1)),
    ("tunnelkit._quadrature", "panel_nodes", "quadrature",
     lambda args, kwargs, result: _size(result[0])),
    ("tunnelkit._quadrature", "phase_panels", "quadrature", None),
    ("tunnelkit._quadrature", "adaptive_complex_quad", "quadrature", _calls),
    ("tunnelkit._chebyshev", "build_verified", "chebyshev",
     lambda args, kwargs, result: int(result is not None)),
    ("tunnelkit._chebyshev", "ChebyshevTable.__call__", "chebyshev", None),
    ("tunnelkit.analysis", "double_barrier_report", "analysis", None),
    ("tunnelkit.analysis", "detect_peaks", "analysis", None),
    ("tunnelkit.analysis", "fit_exponential", "analysis", None),
    ("tunnelkit.analysis", "find_resonances", "analysis", None),
    ("tunnelkit.analysis", "decay_rate", "analysis", None),
    ("tunnelkit.analysis", "square_barrier_tunneling_time", "analysis", None),
    ("tunnelkit.analysis", "_single_barrier_phase", "analysis", None),
    ("tunnelkit.analysis", "peak_series_density", "analysis", _size_of_arg(0)),
    ("tunnelkit.analysis", "continuum_density", "analysis", _size_of_arg(0)),
    ("tunnelkit.analysis", "resonance_density", "analysis", _size_of_arg(0)),
    ("tunnelkit.analysis", "multi_resonance_density", "analysis", _size_of_arg(0)),
    ("tunnelkit.analysis", "erfc_complex_array", "kinematics", None),
    ("tunnelkit.scattering", "matching_weight", "kinematics", None),
]


class Recorder:
    """Spans kept in memory as [name, layer, start, end, parent, work]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.absent: list[str] = []

    @contextlib.contextmanager
    def span(self, name: str, layer: str):
        """A span around code of the benchmark itself, such as one op."""
        idx = self._open(name, layer)
        start = perf_counter()
        try:
            yield
        finally:
            self._close(idx, start, perf_counter(), 0)

    def _open(self, name: str, layer: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, layer, 0.0, 0.0, parent, 0])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, start: float, end: float, work: int) -> None:
        self._stack.pop()
        span = self.spans[idx]
        span[2], span[3], span[5] = start, end, work

    def _wrap(self, fn, name: str, layer: str, work):
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = rec._open(name, layer)
            start = perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                n = work(args, kwargs, result) if work and result is not None else 0
                rec._close(idx, start, end, n)
        return wrapper

    def install(self) -> None:
        """Wrap every target that exists; record the rest as absent."""
        self.absent = []
        for module_name, attr, layer, work in TARGETS:
            caller = module_name.rsplit(".", 1)[1]
            name = f"{caller.lstrip('_')}.{attr}"
            try:
                owner = importlib.import_module(module_name)
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, leaf)
            except (ImportError, AttributeError):
                self.absent.append(name)
                continue
            self._patched.append((owner, leaf, original))
            setattr(owner, leaf, self._wrap(original, name, layer, work))

    def uninstall(self) -> None:
        for owner, leaf, original in reversed(self._patched):
            setattr(owner, leaf, original)
        self._patched = []

    def clear(self) -> None:
        self.spans = []
        self._stack = []


def layer_summary(spans: list[list]) -> dict:
    """Self time, calls and work per layer, plus the derived counters.

    A span's self time is its duration minus the durations of its direct
    children; a layer's self time is the sum over its spans.
    """
    n = len(spans)
    child = [0.0] * n
    for s in spans:
        if s[4] >= 0:
            child[s[4]] += s[3] - s[2]
    self_s = defaultdict(float)
    calls = defaultdict(int)
    work = defaultdict(int)
    by_name = defaultdict(int)
    write_s = 0.0
    for i, s in enumerate(spans):
        name, layer, start, end = s[0], s[1], s[2], s[3]
        self_s[layer] += (end - start) - child[i]
        calls[layer] += 1
        by_name[name] += 1
        work[name] += s[5]
        if name in WRITERS:
            write_s += end - start

    # momenta evaluated inside arrival_density calls, per final node
    in_density = [False] * n
    for i, s in enumerate(spans):
        p = s[4]
        in_density[i] = p >= 0 and (in_density[p] or spans[p][0].endswith(".arrival_density"))
    density_momenta = sum(s[5] for i, s in enumerate(spans)
                          if s[1] == "scattering" and in_density[i])
    final_nodes = work["cli.arrival_density"] + work["wavepacket.arrival_density"]

    momenta = sum(s[5] for s in spans if s[1] == "scattering")
    builds = by_name["chebyshev.build_verified"]
    return {
        "self_s": dict(self_s),
        "calls": dict(calls),
        "scattering.momenta": momenta,
        "scattering.momenta_per_node": density_momenta / final_nodes if final_nodes else 0.0,
        "quadrature.nodes": work["quadrature.panel_nodes"],
        "quadrature.adaptive_calls": work["quadrature.adaptive_complex_quad"],
        "chebyshev.builds": builds,
        "chebyshev.accept_ratio": work["chebyshev.build_verified"] / builds if builds else 0.0,
        "analysis.model_samples": sum(work[f"analysis.{f}"] for f in (
            "peak_series_density", "continuum_density", "resonance_density",
            "multi_resonance_density")),
        "cli.write_s": write_s,
        "spans": n,
    }
