"""Packets, detectors, and the arrival-density pipeline."""

from __future__ import annotations

import json
import math
import re
import tracemalloc
import warnings
from collections import namedtuple
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

from tunnelkit import cli, wavepacket
from tunnelkit import (
    ArrivalDistribution,
    DetectorSpec,
    NumericsError,
    PhysicsDomainError,
    PotentialProfile,
    RegimeWarning,
    WavePacketSpec,
    arrival_amplitude,
    arrival_density,
    causality_mass,
    delay_time,
    detect_peaks,
    double_barrier_report,
    detection_phase_derivative,
    find_resonances,
    phase_split,
    piecewise_amplitudes,
    square_barrier_tunneling_time,
    stationary_phase_time,
    total_transmission,
)

from tunnelkit.scattering import _transfer_TR
from _helpers import _velocity

M = 1.0
FREE = PotentialProfile(M, ())  # free propagation: the empty profile
_Panels = namedtuple("_Panels", "lo hi evaluated_at", defaults=(None,))


def _free_amplitude_oracle(L, t, spec, n=200_001):
    """Independent brute-force evaluation of the free arrival integral."""
    lo, hi = spec.k_window
    k = np.linspace(lo, hi, n)
    E = np.hypot(k, M)
    v = k / E
    integrand = np.sqrt(v) * spec.envelope(k) * np.exp(1j * (k * (L + spec.x0) - E * t))
    return np.trapezoid(integrand, k) / (2 * np.pi)


def _grid_pass_on(smooth, L, quad, times):
    """wavepacket._grid_pass on the final panels ``quad``, every node of which
    is evaluated here once, in panel order, as the refinement keeps them."""
    x = wavepacket._quadrature.panel_nodes(quad.lo, quad.hi)[0]
    in_order = _Panels(quad.lo, quad.hi, np.arange(quad.lo.size))
    return wavepacket._grid_pass(smooth(x.ravel()), M, L, in_order, times,
                                 wavepacket._uniform_step(times))


def _item7_problem():
    """Acceptance item 7: the 16-peak double barrier, its detector position
    L = 10 d and its 2800-time grid, where E t reaches 8.5e5 rad."""
    p, v0, a, r = 0.35, 0.4, 2.5, 6000.0
    sigma_x = _velocity(p) * double_barrier_report(p, v0, a, r, M).dt / 8.0
    spec = WavePacketSpec("gaussian", p=p, sigma_p=1.0 / (2 * sigma_x), x0=5 * sigma_x)
    prof = PotentialProfile.double(M, v0, a, r)
    L = 10.0 * prof.width
    rep = double_barrier_report(p, v0, a, r, M, L=L, x0=spec.x0)
    times = np.linspace(L + spec.x0 - 8.0 * sigma_x, rep.t0 + 16.5 * rep.dt, 2800)
    return spec, prof, L, times


@pytest.fixture(scope="module")
def narrow_gaussian():
    return WavePacketSpec("gaussian", p=0.3, sigma_p=0.003, x0=900.0)


@pytest.fixture(scope="module")
def free_run(narrow_gaussian):
    spec = narrow_gaussian
    det = DetectorSpec(position=500.0)
    t_bar = (spec.x0 + det.position) / _velocity(spec.p)
    sig_t = spec.sigma_x / _velocity(spec.p)
    times = np.linspace(t_bar - 10.5 * sig_t, t_bar + 10.5 * sig_t, 801)
    return times, arrival_density(times, spec, FREE, det), det, t_bar


class TestWavePacketSpec:
    def test_invariants(self):
        with pytest.raises(PhysicsDomainError):
            WavePacketSpec("gaussian", p=0.3, sigma_p=0.11, x0=1.0)  # > p/3
        with pytest.raises(PhysicsDomainError):
            WavePacketSpec("gaussian", p=0.3, sigma_p=0.01, x0=-1.0)
        with pytest.raises(PhysicsDomainError):
            WavePacketSpec("boxcar", p=0.3, sigma_p=0.01, x0=1.0)

    def test_gaussian_peak_value(self):
        spec = WavePacketSpec("gaussian", p=0.3, sigma_p=0.01, x0=2.0)
        got = spec.momentum_amplitude(0.3)
        want = (2 * math.pi / 0.01**2) ** 0.25 * np.exp(1j * 0.3 * 2.0)
        assert got == pytest.approx(want, rel=1e-14)

    def test_gaussian_sigma_ratio(self):
        spec = WavePacketSpec("gaussian", p=0.3, sigma_p=0.01, x0=2.0)
        ratio = abs(spec.momentum_amplitude(0.31) / spec.momentum_amplitude(0.3))
        assert ratio == pytest.approx(math.exp(-0.25), rel=1e-12)

    @pytest.mark.parametrize("shape", ["gaussian", "lorentzian"])
    def test_momentum_normalization(self, shape):
        # int |u~0|^2 dk/(2pi) = 1; Lorentzian constant from int (1+x^2)^-2 = pi/2
        spec = WavePacketSpec(shape, p=0.5, sigma_p=0.05, x0=1.0)
        k = np.linspace(-30, 30, 800_001) * spec.sigma_p + spec.p
        mass = np.trapezoid(spec.envelope(k) ** 2, k) / (2 * np.pi)
        tol = 1e-8 if shape == "gaussian" else 1e-4  # heavy power-law tails
        assert mass == pytest.approx(1.0, rel=tol)

    def test_lorentzian_constant(self):
        spec = WavePacketSpec("lorentzian", p=0.5, sigma_p=0.05, x0=1.0)
        assert spec.envelope(0.5) == pytest.approx(2.0 / math.sqrt(0.05), rel=1e-14)

    def test_position_envelope_parseval(self):
        for shape in ("gaussian", "lorentzian"):
            spec = WavePacketSpec(shape, p=0.5, sigma_p=0.05, x0=1.0)
            x = np.linspace(-4000, 4000, 400_001)
            assert np.trapezoid(spec.position_envelope(x) ** 2, x) == pytest.approx(
                1.0, rel=1e-6)


class TestDetectorSpec:
    def test_far_field_enforced(self):
        prof = PotentialProfile.square(M, 0.5, 10.0)
        with pytest.raises(PhysicsDomainError):
            DetectorSpec(position=50.0).check_far_field(prof)

    def test_far_field_warning_band(self):
        prof = PotentialProfile.square(M, 0.5, 10.0)
        with pytest.warns(RegimeWarning):
            DetectorSpec(position=300.0).check_far_field(prof)

    def test_absorption_bounds(self):
        with pytest.raises(PhysicsDomainError):
            DetectorSpec(position=10.0, absorption=1.5)

    @pytest.mark.parametrize("kt, at", [
        pytest.param([0.1, 0.2, 0.3], [0.5, 0.5], id="ragged"),
        pytest.param([0.1], [0.5], id="one-sample"),
        pytest.param([0.1, np.nan, 0.3], [0.5, 0.5, 0.5], id="nan-k"),
        pytest.param([0.1, 0.2, 0.3], [0.5, np.nan, 0.5], id="nan-alpha"),
        pytest.param([0.3, 0.2, 0.1], [0.5, 0.5, 0.5], id="decreasing-k"),
        pytest.param([0.1, 0.2, 0.3], [0.5, 1.5, 0.5], id="alpha-above-1"),
    ])
    def test_tabulated_absorption_rules_name_the_field(self, kt, at):
        with pytest.raises(PhysicsDomainError) as exc:
            DetectorSpec(position=10.0, absorption=(kt, at))
        assert exc.value.field == "absorption"

    def test_two_point_table_is_linear_and_clamped(self):
        det = DetectorSpec(position=10.0, absorption=([0.2, 0.5], [0.3, 0.9]))
        k = np.linspace(0.2, 0.5, 31)
        assert np.allclose(det.absorption_at(k), 0.3 + 2.0 * (k - 0.2), rtol=0, atol=1e-15)
        assert det.absorption_at(np.array([0.1, 0.6])) == pytest.approx([0.3, 0.9], abs=1e-15)

    def test_end_slope_is_clamped(self):
        # secants 1 and -5: the interior slope is 0, the left end's three-point
        # slope 4 exceeds 3 d0 and is clamped to 3, the right end keeps -8
        kt, at = np.array([0.2, 0.3, 0.4]), np.array([0.5, 0.6, 0.1])
        assert wavepacket._pchip_slopes(kt, at) == pytest.approx([3.0, 0.0, -8.0], rel=1e-12)
        vals = DetectorSpec(position=10.0, absorption=(kt, at)).absorption_at(
            np.linspace(0.1, 0.5, 401))
        assert np.all(vals >= 0.1) and np.all(vals <= 0.6)

    def test_tabulated_absorption_monotone_interp(self):
        kt = np.array([0.1, 0.2, 0.4, 0.8])
        at = np.array([0.1, 0.5, 0.5, 0.9])
        det = DetectorSpec(position=10.0, absorption=(kt, at))
        kk = np.linspace(0.1, 0.8, 500)
        vals = det.absorption_at(kk)
        assert np.all(vals >= 0.1 - 1e-12) and np.all(vals <= 0.9 + 1e-12)
        assert np.all(np.diff(vals) >= -1e-12)  # monotone data stays monotone
        assert det.absorption_at(np.array([0.2]))[0] == pytest.approx(0.5)


class TestSidecar:
    def test_numpy_values_are_written_as_python_ones(self, tmp_path):
        dist = ArrivalDistribution(times=np.arange(4.0), density=np.zeros(4),
                                   metadata={"a": np.arange(3), "b": np.float32(1.5)})
        dist.write_sidecar(tmp_path / "s.json")
        assert json.loads((tmp_path / "s.json").read_text()) == {"a": [0, 1, 2], "b": 1.5}

    def test_other_values_raise(self, tmp_path):
        # nothing is written: no sidecar, no part file, and an older sidecar
        # at the path is left as it was
        dist = ArrivalDistribution(times=np.arange(4.0), density=np.zeros(4),
                                   metadata={"a": {1, 2}})
        with pytest.raises(TypeError, match="not JSON serializable"):
            dist.write_sidecar(tmp_path / "s.json")
        assert list(tmp_path.iterdir()) == []
        (tmp_path / "s.json").write_text('{"a": 1}\n')
        with pytest.raises(TypeError, match="not JSON serializable"):
            dist.write_sidecar(tmp_path / "s.json")
        assert (tmp_path / "s.json").read_text() == '{"a": 1}\n'
        assert not (tmp_path / "s.json.part").exists()


class TestFreePipeline:
    def test_matches_independent_oracle_pointwise(self, narrow_gaussian, free_run):
        times, dist, det, t_bar = free_run
        sig_t = narrow_gaussian.sigma_x / _velocity(narrow_gaussian.p)
        peak = float(np.max(dist.density))
        for t in (t_bar - 3 * sig_t, t_bar, t_bar + 2.2 * sig_t):
            mine = arrival_amplitude(det.position, float(t), narrow_gaussian, FREE)
            oracle = _free_amplitude_oracle(det.position, float(t), narrow_gaussian)
            assert abs(mine - oracle) ** 2 < 1e-8 * peak
            assert abs(mine - oracle) < 1e-8 * abs(oracle)

    def test_peak_location_and_height(self, narrow_gaussian, free_run):
        times, dist, det, t_bar = free_run
        peaks = detect_peaks(dist)
        t_peak, height = max(peaks, key=lambda q: q[1])
        assert abs(t_peak - t_bar) < times[1] - times[0]
        vp = _velocity(narrow_gaussian.p)
        want = vp * math.sqrt(2 / math.pi) * narrow_gaussian.sigma_p
        assert height == pytest.approx(want, rel=0.01)

    def test_total_mass_is_one(self, free_run):
        _, dist, _, _ = free_run
        assert dist.total_mass() == pytest.approx(1.0, abs=1e-6)

    def test_light_cone_suppression(self, narrow_gaussian, free_run):
        times, dist, det, t_bar = free_run
        early = arrival_amplitude(det.position,
                                  0.5 * (det.position + narrow_gaussian.x0),
                                  narrow_gaussian, FREE)
        assert abs(early) ** 2 < 1e-6 * float(np.max(dist.density))

    def test_causality_mass(self, narrow_gaussian, free_run):
        times, dist, det, _ = free_run
        frac = causality_mass(dist, det.position, narrow_gaussian.x0,
                              5.0 * narrow_gaussian.sigma_x)
        assert frac < 1e-3

    def test_free_total_transmission_is_unity(self, narrow_gaussian):
        assert total_transmission(narrow_gaussian, FREE) == pytest.approx(1.0, abs=1e-10)

    def test_absorption_weighted_mass(self, narrow_gaussian, free_run):
        # total detected mass = int alpha(k) |u~0|^2 dk/(2 pi) for a free run
        times, _, det, _ = free_run
        spec = narrow_gaussian
        kt = np.linspace(spec.k_window[0], spec.k_window[1], 9)
        at = 0.3 + 0.4 * (kt - kt[0]) / (kt[-1] - kt[0])
        graded = DetectorSpec(position=det.position, absorption=(kt, at))
        dist = arrival_density(times, spec, FREE, graded)
        kk = np.linspace(spec.k_window[0], spec.k_window[1], 200_001)
        expected = np.trapezoid(graded.absorption_at(kk) * spec.envelope(kk) ** 2,
                                kk) / (2 * np.pi)
        assert dist.total_mass() == pytest.approx(expected, rel=1e-4)
        assert dist.total_mass() == pytest.approx(
            total_transmission(spec, FREE, alpha=graded.absorption_at), rel=1e-6)


@pytest.fixture(scope="module")
def barrier_run():
    spec = WavePacketSpec("gaussian", p=0.3, sigma_p=0.003, x0=900.0)
    prof = PotentialProfile.square(M, 0.5, 5.0)
    det = DetectorSpec(position=500.0)
    vp = _velocity(spec.p)
    t_bar = (spec.x0 + det.position + detection_phase_derivative(prof, spec.p)) / vp
    sig_t = spec.sigma_x / vp
    times = np.linspace(t_bar - 10.5 * sig_t, t_bar + 10.5 * sig_t, 801)
    return spec, prof, det, times, arrival_density(times, spec, prof, det), t_bar


class TestBarrierPipeline:
    def test_stationary_phase_peak(self, barrier_run):
        spec, prof, det, times, dist, t_bar = barrier_run
        t_peak, _ = max(detect_peaks(dist), key=lambda q: q[1])
        assert abs(t_peak - t_bar) < times[1] - times[0]

    def test_mass_matches_total_transmission(self, barrier_run):
        spec, prof, det, times, dist, _ = barrier_run
        assert dist.total_mass() == pytest.approx(
            total_transmission(spec, prof), rel=0.01)

    def test_density_positive_and_bounded(self, barrier_run):
        _, _, _, _, dist, _ = barrier_run
        assert np.all(dist.density >= 0.0)
        assert dist.total_mass() <= 1.0 + 1e-6

    def test_time_translation_covariance(self, barrier_run):
        spec, prof, det, times, dist, _ = barrier_run
        delta = 400.0
        shifted = WavePacketSpec(spec.shape, spec.p, spec.sigma_p, spec.x0 + delta)
        vp = _velocity(spec.p)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            dist2 = arrival_density(times + delta / vp, shifted, prof, det)
        t1 = max(detect_peaks(dist), key=lambda q: q[1])[0]
        t2 = max(detect_peaks(dist2), key=lambda q: q[1])[0]
        assert abs((t2 - t1) - delta / vp) < times[1] - times[0]

    def test_grid_refinement_stability(self, barrier_run):
        spec, prof, det, times, dist, _ = barrier_run
        fine = np.linspace(times[0], times[-1], 2 * times.size - 1)
        dist2 = arrival_density(fine, spec, prof, det, rel_tol=1e-10)
        assert dist2.total_mass() == pytest.approx(dist.total_mass(), rel=1e-6)

    def test_zero_absorption_gives_zero(self, barrier_run):
        spec, prof, det, times, _, _ = barrier_run
        dead = DetectorSpec(position=det.position, absorption=0.0)
        with pytest.warns(RegimeWarning, match="density is exactly 0"):
            dist = arrival_density(times, spec, prof, dead)
        assert np.all(dist.density == 0.0)

    def test_zero_absorption_reports_its_panels(self, barrier_run):
        spec, prof, det, times, _, _ = barrier_run
        dead = DetectorSpec(position=det.position, absorption=0.0)
        with pytest.warns(RegimeWarning) as rec:
            dist = arrival_density(times, spec, prof, dead)
        assert [w.message.code for w in rec] == ["no_signal"]
        assert dist.metadata["quadrature"]["panels"] > 0

    def test_narrow_absorption_band_is_detected(self, barrier_run):
        # alpha > 0 only on (0.30005, 0.30145), inside one 1.5e-3 step of a
        # 33-point sampling of the packet window; the arrival is spread over
        # many sigma_t by the narrow band, hence the +-80 sigma_t grid
        spec, prof, det, _, _, t_bar = barrier_run
        band = DetectorSpec(position=det.position,
                            absorption=([0.299, 0.30005, 0.30075, 0.30145, 0.303],
                                        [0.0, 0.0, 1.0, 0.0, 0.0]))
        sig_t = spec.sigma_x / _velocity(spec.p)
        times = np.linspace(t_bar - 80.0 * sig_t, t_bar + 80.0 * sig_t, 1601)
        mass = arrival_density(times, spec, prof, band).total_mass()
        assert mass == pytest.approx(total_transmission(spec, prof, alpha=band.absorption_at),
                                     rel=0.01)

    def test_narrow_grid_warns(self, barrier_run):
        spec, prof, det, times, _, t_bar = barrier_run
        short = np.linspace(t_bar - 100.0, t_bar + 100.0, 16)
        with pytest.warns(RegimeWarning):
            arrival_density(short, spec, prof, det)

    @pytest.mark.parametrize("grid", [[0.0, 1.0, 2.0], [0.0, 1.0, 1.0, 2.0],
                                      [0.0, 2.0, 1.0, 3.0], [[0.0, 1.0], [2.0, 3.0]]],
                             ids=["three-times", "repeated", "decreasing", "2-d"])
    def test_rejects_short_or_non_increasing_grid(self, barrier_run, grid):
        spec, prof, det, times, _, t_bar = barrier_run
        with pytest.raises(PhysicsDomainError, match="increasing time grid with >= 4 points"):
            arrival_density(t_bar + np.array(grid), spec, prof, det)


class TestFactoredKernel:
    """The full-grid pass factors e^{-iE t} over blocks of a uniform grid."""

    @staticmethod
    def _matches_single_times(unit, barrier_run, rel_tol=1e-8):
        # unit spans [-1, 1], mapped to +-5 sigma_t around the peak; single-time
        # amplitudes converge out to about 6 sigma_t
        spec, prof, det, times, _, t_bar = barrier_run
        sig_t = (times[-1] - t_bar) / 10.5
        t = t_bar + 5.0 * sig_t * unit
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RegimeWarning)  # narrower than +-10 sigma_t
            dist = arrival_density(t, spec, prof, det, rel_tol=rel_tol)
        peak = float(np.max(dist.density))
        for j in np.unique(np.linspace(0, t.size - 1, 10).astype(int)):
            amp = arrival_amplitude(det.position, float(t[j]), spec, prof, rel_tol=rel_tol)
            assert abs(dist.density[j] - abs(amp) ** 2) <= 10 * rel_tol * peak
        return dist

    @pytest.mark.parametrize("n, blocks", [(784, [28, 28]), (797, [28, 29]), (4, [2, 2])],
                             ids=["square", "prime", "four"])
    def test_uniform_grid_matches_amplitude(self, barrier_run, n, blocks):
        # 797 = 28 * 29 - 15: the last block is padded past the grid
        dist = self._matches_single_times(np.linspace(-1.0, 1.0, n), barrier_run)
        assert dist.metadata["quadrature"]["time_blocks"] == blocks

    def test_non_uniform_grid_is_rejected(self, barrier_run, monkeypatch):
        # a geomspace grid, and a linspace grid with one time moved by 1e-9 of
        # a step, fail before any quadrature
        spec, prof, det, times, _, t_bar = barrier_run
        sig_t = (times[-1] - t_bar) / 10.5
        monkeypatch.setattr(wavepacket._quadrature, "adaptive_quad", None)
        jittered = times.copy()
        jittered[400] += 1e-9 * (times[1] - times[0])
        for t in (t_bar + 5.0 * sig_t * (np.geomspace(1.0, 3.0, 797) - 2.0), jittered):
            with pytest.raises(PhysicsDomainError, match="non-uniform time grid"):
                arrival_density(t, spec, prof, det)

    def test_node_chunks_sum_to_one_chunk(self, barrier_run, monkeypatch):
        spec, prof, det, times, *_ = barrier_run
        grid = np.linspace(times[0], times[-1], 797)
        monkeypatch.setattr(wavepacket, "_KERNEL_CHUNK", 1e12)
        whole = arrival_density(grid, spec, prof, det).density
        # A + 2B = 28 + 2 * 29: 100 nodes per chunk
        monkeypatch.setattr(wavepacket, "_KERNEL_CHUNK", 86 * 100)
        chunked = arrival_density(grid, spec, prof, det).density
        assert np.max(np.abs(chunked - whole)) <= 1e-13 * np.max(whole)

    def test_grid_of_many_chunks_matches_one_chunk(self, monkeypatch):
        # the item-7 pre-panels: 5115 nodes against 412 a chunk at A + 2B = 159
        spec, prof, L, times = _item7_problem()
        edges = wavepacket._initial_edges(spec, M, L, times[0], times[-1])
        quad = _Panels(edges[:-1], edges[1:])
        smooth = wavepacket._smooth_part(spec, prof, None)
        assert 15 * quad.lo.size >= 3 * (wavepacket._KERNEL_CHUNK // (53 + 2 * 53))
        k15, diff, _ = _grid_pass_on(smooth, L, quad, times)
        monkeypatch.setattr(wavepacket, "_KERNEL_CHUNK", 1e12)
        k15_one, diff_one, _ = _grid_pass_on(smooth, L, quad, times)
        peak = np.max(np.abs(k15_one))
        assert np.max(np.abs(k15 - k15_one)) <= 1e-13 * peak
        assert np.max(np.abs(diff - diff_one)) <= 1e-13 * peak

    def test_interleaved_columns_give_k15_then_its_g7_difference(self, barrier_run,
                                                                 monkeypatch):
        # V interleaves the K15 and K15 - G7 coefficients; swapped columns
        # would return the tiny difference as the amplitude
        spec, prof, det, times, _, _ = barrier_run
        grid_pass, passes = wavepacket._grid_pass, []

        def recorded(*args):
            passes.append(grid_pass(*args))
            return passes[-1]
        monkeypatch.setattr(wavepacket, "_grid_pass", recorded)
        arrival_density(times, spec, prof, det)
        k15, diff, _ = passes[-1]
        peak = np.max(np.abs(k15)) / (2 * math.pi)
        assert np.max(diff) / (2 * math.pi) <= 1e-7 * peak
        for j in np.linspace(210, 590, 5).astype(int):  # within +-5 sigma_t of the peak
            amp = arrival_amplitude(det.position, float(times[j]), spec, prof)
            assert abs(k15[j] / (2 * math.pi) - amp) <= 1e-7 * peak

    def test_item7_density_working_set(self):
        # the kernel tables go a node chunk at a time, the refinement integrand
        # is one (nodes, times + 1) array and the panel sums form no weighted
        # copy: 2.7 MB traced, a process's first call too, which importing
        # numpy.ma (np.unique does) would raise to 3.8 MB. Tables of 2^18
        # entries and those copies took 6.4 MB
        spec, prof, L, times = _item7_problem()
        tracemalloc.start()
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RegimeWarning)  # L = 10 d is marginal
                arrival_density(times, spec, prof, DetectorSpec(position=L), rel_tol=1e-7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4.5e6

    def test_long_train_phase_matches_extended_precision(self):
        # the 2800-time item-7 grid, where E t reaches 8.5e5 rad: against the
        # same nodes and coefficients with E t formed and reduced mod 2 pi in
        # 30 digits, the K15 density holds 1e-13 of its peak. Direct tables
        # e^{-iE t} read 1.7e-12 of the peak here, and powers of e^{-iE h}
        # without the shift to E - E_c 3.9e-13
        spec, prof, L, times = _item7_problem()
        edges = wavepacket._initial_edges(spec, M, L, times[0], times[-1])
        quad = _Panels(edges[:-1], edges[1:])
        smooth = wavepacket._smooth_part(spec, prof, None)
        k15, _, blocks = _grid_pass_on(smooth, L, quad, times)
        assert blocks == [53, 53]
        density = np.abs(k15) ** 2
        x, wk, _ = wavepacket._quadrature.panel_nodes(quad.lo, quad.hi)
        coeff = (wk * smooth(x.ravel()).reshape(x.shape) * np.exp(1j * x * L)).ravel()
        E = wavepacket.relativistic_kinematics(x, M).energy.ravel()
        with mp.workdps(30):
            two_pi = 2 * mp.pi
            for j in np.linspace(0, times.size - 1, 8).astype(int):
                t = mp.mpf(float(times[j]))
                phase = np.array([float(mp.fmod(mp.mpf(float(e)) * t, two_pi)) for e in E])
                ref = abs(np.sum(coeff * np.exp(-1j * phase))) ** 2
                assert abs(density[j] - ref) <= 1e-13 * np.max(density)

    def test_single_time_amplitude_reaches_the_tails(self, barrier_run):
        # at +-8 sigma_t the density is about 1e-14 of its peak; the single-time
        # tolerance is relative to int |g| dk, so the quadrature still converges
        spec, prof, det, times, dist, t_bar = barrier_run
        sig_t = (times[-1] - t_bar) / 10.5
        t = t_bar + sig_t * np.linspace(-8.0, 8.0, 161)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RegimeWarning)
            grid = arrival_density(t, spec, prof, det).density
        for j in (0, -1):
            assert grid[j] < 1e-12 * np.max(grid)
            amp = arrival_amplitude(det.position, float(t[j]), spec, prof)
            assert abs(amp) ** 2 == pytest.approx(grid[j], rel=1e-4)


class TestOneEvaluationPerNode:
    """A time grid evaluates A_k once per node: the final pass takes its nodes
    from the ones the refinement evaluated."""

    @staticmethod
    def _record(monkeypatch):
        momenta, quads = [], []
        scan, grid_pass = wavepacket.detection_amplitude_scan, wavepacket._grid_pass

        def scan_recorded(profile, k):
            momenta.append(np.array(k, dtype=float))
            return scan(profile, k)

        def grid_pass_recorded(*args):
            quads.append(args[3])
            return grid_pass(*args)
        monkeypatch.setattr(wavepacket, "detection_amplitude_scan", scan_recorded)
        monkeypatch.setattr(wavepacket, "_grid_pass", grid_pass_recorded)
        return momenta, quads

    @staticmethod
    def _assert_once_per_node(momenta, quads):
        k = np.sort(np.concatenate(momenta))
        assert np.all(np.diff(k) > 0)  # no momentum evaluated twice
        (quad,) = quads
        final = wavepacket._quadrature.panel_nodes(quad.lo, quad.hi)[0].ravel()
        assert np.all(np.isin(final, k))

    def test_item7_density(self, monkeypatch):
        spec, prof, L, times = _item7_problem()
        momenta, quads = self._record(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RegimeWarning)  # L = 10 d is marginal
            arrival_density(times, spec, prof, DetectorSpec(position=L), rel_tol=1e-7)
        self._assert_once_per_node(momenta, quads)

    def test_readme_quickstart(self, monkeypatch, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        cfg = tmp_path / "readme.json"
        cfg.write_text(re.search(r"```json\n(.*?)```", readme, re.S).group(1), encoding="utf-8")
        momenta, quads = self._record(monkeypatch)
        assert cli.main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 0
        self._assert_once_per_node(momenta, quads)


class TestFullGridErrorControl:
    """Every sample of the grid, not only the representative times, holds rel_tol."""

    @pytest.fixture(scope="class")
    def trough_grid(self):
        # a well-separated peak train; 23 blocks of a trough and a peak sample,
        # then a last trough: the 24 representative times (every other index)
        # are the troughs, and every peak sample falls between two of them
        v0, a, r = 0.4, 2.5, 120.0
        sigma_x = _velocity(0.35) * double_barrier_report(0.35, v0, a, r, M).dt / 8.0
        spec = WavePacketSpec("gaussian", p=0.35, sigma_p=1.0 / (2 * sigma_x),
                              x0=5 * sigma_x)
        prof = PotentialProfile.double(M, v0, a, r)
        det = DetectorSpec(position=11.0 * prof.width)
        rep = double_barrier_report(0.35, v0, a, r, M, L=det.position, x0=spec.x0,
                                    sigma_p=spec.sigma_p)
        times = rep.t0 + rep.dt * np.append(np.arange(23)[:, None] + [-0.5, 0.0], 22.5)
        return spec, prof, det, times

    @pytest.fixture(scope="class")
    def trough_reference(self, trough_grid):
        spec, prof, det, times = trough_grid
        return np.array([abs(arrival_amplitude(det.position, float(t), spec, prof,
                                               rel_tol=1e-11)) for t in times])

    @pytest.mark.parametrize("rel_tol", [1e-6, 1e-8, 1e-10])
    def test_every_sample_holds_the_error_estimate(self, trough_grid, trough_reference,
                                                   rel_tol):
        # the panels are refined on the troughs only, yet every sample,
        # the peaks between them included, lies within error_estimate
        spec, prof, det, times = trough_grid
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RegimeWarning)
            dist = arrival_density(times, spec, prof, det, rel_tol=rel_tol)
        ref = trough_reference
        assert times.size == 47 and np.argmax(ref) % 2 == 1  # the highest is a peak sample
        dev = np.abs(np.sqrt(dist.density) - ref)
        assert np.max(dev) <= dist.metadata["quadrature"]["error_estimate"]
        assert np.max(dev) <= rel_tol * np.max(ref)

    def test_grid_miss_that_refinement_cannot_fix_raises(self, trough_grid, monkeypatch):
        # refinement stopped at the pre-panels misses rel_tol at the peaks
        spec, prof, det, times = trough_grid
        real = wavepacket._quadrature.adaptive_quad
        quads = []

        def adaptive_quad(f, edges, rel_tol):
            quads.append(real(f, edges, 1.0))
            return quads[-1]

        monkeypatch.setattr(wavepacket._quadrature, "adaptive_quad", adaptive_quad)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RegimeWarning)
            with pytest.raises(NumericsError, match="full time grid") as exc:
                arrival_density(times, spec, prof, det, rel_tol=1e-8)
        diag = exc.value.diagnostics
        assert set(diag) == {"panels", "refinement_rounds", "total_error", "tolerance",
                             "worst_time"}
        assert len(quads) == 1 and diag["panels"] == quads[0].lo.size
        assert diag["total_error"] > diag["tolerance"] > 0.0
        smooth = wavepacket._smooth_part(spec, prof, det.absorption_at)
        _, err, _ = _grid_pass_on(smooth, det.position, quads[0], times)
        assert diag["total_error"] == np.max(err)
        assert diag["worst_time"] == times[np.argmax(err)]

    def test_grid_wholly_in_the_tails_converges(self, barrier_run):
        # t_bar + sigma_t [7, 7 1/3, 7 2/3, 8], uniform on one tail: every
        # amplitude is tiny, but rel_tol is relative to int |g| dk, as in
        # arrival_amplitude, so the refinement converges on a few dozen panels
        spec, prof, det, times, _, t_bar = barrier_run
        sig_t = (times[-1] - t_bar) / 10.5
        t = t_bar + sig_t * np.linspace(7.0, 8.0, 4)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RegimeWarning)
            dist = arrival_density(t, spec, prof, det)
        quad = dist.metadata["quadrature"]
        assert quad["panels"] < 100
        ref = np.array([abs(arrival_amplitude(det.position, float(tj), spec, prof,
                                              rel_tol=1e-12)) for tj in t])
        assert np.max(np.abs(np.sqrt(dist.density) - ref)) <= quad["error_estimate"]

    def test_error_estimate_covers_every_sample(self):
        # single barrier, a packet wide enough for 185 phase panels
        spec = WavePacketSpec("gaussian", p=0.3, sigma_p=0.03, x0=900.0)
        prof = PotentialProfile.square(M, 0.5, 5.0)
        det = DetectorSpec(position=500.0)
        t_bar = stationary_phase_time(spec, prof, det.position)
        sig_t = spec.sigma_x / _velocity(spec.p)
        times = np.linspace(t_bar - 10.5 * sig_t, t_bar + 10.5 * sig_t, 201)
        dist = arrival_density(times, spec, prof, det)
        ref = np.array([abs(arrival_amplitude(det.position, float(t), spec, prof,
                                              rel_tol=1e-12)) for t in times])
        dev = np.abs(np.sqrt(dist.density) - ref)
        assert np.max(dev) <= dist.metadata["quadrature"]["error_estimate"]


class TestStationaryPhaseTime:
    @pytest.mark.parametrize("prof", [FREE, PotentialProfile.square(M, 0.5, 5.0),
                                      PotentialProfile.double(M, 0.5, 3.0, 10.0)],
                             ids=["free", "single", "double"])
    def test_free_flight_plus_delay(self, narrow_gaussian, prof):
        spec = narrow_gaussian
        want = (spec.x0 + 500.0) / _velocity(spec.p) + delay_time(spec.p, prof)
        assert stationary_phase_time(spec, prof, 500.0) == pytest.approx(want, rel=1e-14)

    def test_double_anchors_on_first_peak(self, narrow_gaussian):
        # not on the composite-amplitude derivative, which swings through resonances
        spec = narrow_gaussian
        dbl = PotentialProfile.double(M, 0.5, 3.0, 10.0)
        composite = (spec.x0 + 500.0 + detection_phase_derivative(dbl, spec.p)) / _velocity(spec.p)
        assert abs(stationary_phase_time(spec, dbl, 500.0) / composite - 1.0) > 1e-3


class TestAsymmetricSuppression:
    # two-segment barrier whose chi crosses pi/2: transmission probability
    # |A|^2 collapses by cos^2(chi) even though |T|^2 does not
    PROF = PotentialProfile(M, ((0.8, 9.0), (0.25, 14.0)))

    def test_pointwise_cos2chi(self):
        ks = np.linspace(0.75, 0.95, 401)
        sd = piecewise_amplitudes(self.PROF, ks)
        t_abs, _, chi = phase_split(sd.T, sd.R)
        ratios = (np.abs(sd.A) / t_abs) ** 2
        assert np.max(np.abs(ratios - np.cos(chi) ** 2)) < 1e-4

    def test_arrival_mass_is_A_weighted_not_T_weighted(self):
        # at chi = pi/4 the detected mass is half the |T|^2-weighted guess
        ks = np.linspace(0.80, 0.92, 2001)
        sd = piecewise_amplitudes(self.PROF, ks)
        t_abs, _, chi = phase_split(sd.T, sd.R)
        k_star = float(ks[np.argmin(np.abs(chi - np.pi / 4))])
        spec = WavePacketSpec("gaussian", p=k_star, sigma_p=5e-4, x0=2500.0)
        det = DetectorSpec(position=30.0 * self.PROF.width)
        vp = k_star / math.hypot(k_star, M)
        t_bar = (spec.x0 + det.position
                 + detection_phase_derivative(self.PROF, k_star)) / vp
        sig_t = spec.sigma_x / vp
        times = np.linspace(t_bar - 11 * sig_t, t_bar + 11 * sig_t, 501)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            dist = arrival_density(times, spec, self.PROF, det)
        mass = dist.total_mass()
        assert mass == pytest.approx(total_transmission(spec, self.PROF), rel=0.01)
        t_weighted = np.trapezoid(t_abs**2 * spec.envelope(ks) ** 2,
                                  ks) / (2 * np.pi)
        assert mass == pytest.approx(0.5 * t_weighted, rel=0.05)

    def test_packet_transmission_suppressed(self):
        # center the packet where chi = pi/2
        ks = np.linspace(0.80, 0.92, 2001)
        sd = piecewise_amplitudes(self.PROF, ks)
        t_abs, _, chi = phase_split(sd.T, sd.R)
        k_star = float(ks[np.argmin(np.abs(chi - np.pi / 2))])
        spec = WavePacketSpec("gaussian", p=k_star, sigma_p=5e-4, x0=1e4)
        got = total_transmission(spec, self.PROF)
        t_only = np.trapezoid(t_abs**2 * spec.envelope(ks) ** 2, ks) / (2 * np.pi)
        assert got < 0.01 * t_only


class TestUnconvergedRunsFail:
    @pytest.mark.parametrize("width", [1e-15, 1e-17])
    def test_unresolvable_model_amplitude_hits_round_cap(self, narrow_gaussian, width):
        # a Lorentzian this narrow cannot be resolved in MAX_ROUNDS rounds; the
        # run must fail instead of returning an estimate far above tolerance.
        # 1e-17 lies below ulp(p) = 5.6e-17, where no panel resolves it at all:
        # a split rule that lets that run converge returns a wrong density
        spec = narrow_gaussian
        det = DetectorSpec(position=500.0)
        t_bar = (spec.x0 + det.position) / _velocity(spec.p)
        sig_t = spec.sigma_x / _velocity(spec.p)
        times = np.linspace(t_bar - 10.5 * sig_t, t_bar + 10.5 * sig_t, 64)
        with pytest.raises(NumericsError, match="failed to converge") as exc:
            arrival_density(times, spec, FREE, det,
                            detection_amplitude=lambda k: 1.0 / (1.0 - 1j * (k - spec.p) / width))
        diag = exc.value.diagnostics
        assert diag["refinement_rounds"] == wavepacket._quadrature.MAX_ROUNDS
        assert diag["total_error"] > diag["tolerance"]

    @pytest.mark.parametrize("integral", ["amplitude", "transmission", "density"])
    def test_every_integral_keeps_the_round_limit(self, integral, monkeypatch):
        # each converges in 7 to 11 rounds under the real limit. A symmetric
        # double's transmission integrates over the round-trip phase in 0
        # rounds, so the k-space transmission runs on a right wall of 0.45
        spec = WavePacketSpec("gaussian", p=0.35, sigma_p=0.004, x0=700.0)
        prof = PotentialProfile.double(M, 0.4, 2.5, 300.0)
        lopsided = PotentialProfile(M, ((0.4, 2.5), (0.0, 300.0), (0.45, 2.5)))
        det = DetectorSpec(position=16000.0)
        t_bar = stationary_phase_time(spec, prof, det.position)
        sig_t = spec.sigma_x / _velocity(spec.p)
        run = {"amplitude": lambda: arrival_amplitude(det.position, t_bar, spec, prof),
               "transmission": lambda: total_transmission(spec, lopsided),
               "density": lambda: arrival_density(
                   np.linspace(t_bar - 10.5 * sig_t, t_bar + 10.5 * sig_t, 64),
                   spec, prof, det)}[integral]
        monkeypatch.setattr(wavepacket._quadrature, "MAX_ROUNDS", 2)
        with pytest.raises(NumericsError, match="failed to converge") as exc:
            run()
        assert exc.value.diagnostics["refinement_rounds"] == 2

    @pytest.mark.parametrize("gap", [(300.0,), (100.0, 200.0)], ids=["double", "split-gap"])
    def test_non_finite_integrand_raises(self, gap):
        # the symmetric double takes the round-trip path, the same double with
        # its gap split in two the k path; both apply alpha the same way
        spec = WavePacketSpec("gaussian", p=0.35, sigma_p=0.004, x0=700.0)
        prof = PotentialProfile(M, ((0.4, 2.5), *((0.0, w) for w in gap), (0.4, 2.5)))
        with pytest.raises(NumericsError, match="not finite"):
            total_transmission(spec, prof, alpha=lambda k: np.where(k > 0.35, np.nan, 1.0))


def _item8_packets():
    """The 40 packets of acceptance item 8's sweep on the double (0.5, 3, 40):
    on and between the first 11 resonances, at sigma_p of 1/6 and 1/8 of
    their spacing; the first reaches down to k = 1e-12 p."""
    ks = find_resonances(0.5, 3.0, 40.0, M)
    packets = []
    for k1, k2 in zip(ks[:10], ks[1:11]):
        for div in (6.0, 8.0):
            packets += [WavePacketSpec("gaussian", p=k, sigma_p=(k2 - k1) / div, x0=1000.0)
                        for k in (k1, 0.5 * (k1 + k2))]
    return packets


# total_transmission of the double (0.4, a, 500) at p = 0.35, sigma_p = 0.0035,
# to 30 digits, from tests/make_transmission_refs.py (mpmath, |T|^2 from the
# closed-form double barrier, not the Fabry-Perot form integrated here)
_OPAQUE_REFS = {
    8: 0.00000519540765666349229970658667501,
    11: 0.0000000571385722052095495141849959517,
    14: 6.28430585304887180058369673802e-10,
    28: 4.54977789177115139445309866873e-19,
}


class TestRoundTripTransmission:
    # a symmetric double with its packet window in the tunneling window takes
    # |T|^2 in closed form and the round-trip phase near narrow resonances;
    # the same double written with its gap in two segments is not recognised
    # as one, and integrates the transfer-matrix A_k over k
    DOUBLE = PotentialProfile.double(M, 0.5, 3.0, 40.0)
    SPLIT = PotentialProfile(M, ((0.5, 3.0), (0.0, 20.0), (0.0, 20.0), (0.5, 3.0)))

    @pytest.mark.parametrize("v0, a, r", [(0.5, 3.0, 40.0), (0.4, 8.0, 500.0)])
    def test_round_trip_closed_form(self, v0, a, r):
        # |T|^2 = q^2/(q^2 + (1 - q^2) cos^2(psi/2)) against the transfer
        # matrix, and psi' = 2r + 2 v tau against the single-barrier tau
        k_max = math.sqrt(2 * v0 + v0 ** 2)
        k = np.sort(np.random.default_rng(7).uniform(0.01, 0.97, 200)) * k_max
        psi, dpsi, log_q = wavepacket._round_trip(k, v0, a, r, M)
        q2 = np.exp(2.0 * log_q)
        t2 = q2 / (q2 + (1.0 - q2) * np.cos(0.5 * psi) ** 2)
        t, _ = _transfer_TR(PotentialProfile.double(M, v0, a, r).segments, k, M)
        assert np.abs(t2 / np.abs(t) ** 2 - 1.0).max() < 1e-9
        tau = square_barrier_tunneling_time(k, v0, a, M)
        assert np.abs(dpsi / (2.0 * r + 2.0 * k / np.hypot(k, M) * tau) - 1.0).max() < 1e-13

    def test_item8_sweep_matches_k_space(self):
        assert self.SPLIT.as_symmetric_double() is None
        for spec in _item8_packets():
            got = total_transmission(spec, self.DOUBLE, rel_tol=1e-10)
            assert got == pytest.approx(total_transmission(spec, self.SPLIT, rel_tol=1e-10),
                                        rel=1e-10)

    def test_item8_sweep_converges_at_1e_12(self):
        # the k-space path hits the round cap on the first and third packet
        # already at 1e-11
        for spec in _item8_packets():
            fine = total_transmission(spec, self.DOUBLE, rel_tol=1e-12)
            assert fine == pytest.approx(total_transmission(spec, self.DOUBLE, rel_tol=1e-10),
                                         rel=1e-10)

    @pytest.mark.parametrize("a", sorted(_OPAQUE_REFS))
    def test_opaque_double_matches_mpmath(self, a):
        # the k-space path fails on all four: the round cap at 8 and 11, the
        # unitarity check of A_k at 14 and 28
        spec = WavePacketSpec("gaussian", p=0.35, sigma_p=0.0035, x0=700.0)
        got = total_transmission(spec, PotentialProfile.double(M, 0.4, a, 500.0))
        assert got == pytest.approx(_OPAQUE_REFS[a], rel=1e-9)

    @pytest.mark.parametrize("v0, a, r, p, sigma_p, rel_tol, rebuilt", [
        pytest.param(0.4, 2.5, 500.0, 0.35, 0.0035, 1e-10, False, id="2.5"),
        pytest.param(0.4, 5.0, 500.0, 0.35, 0.0035, 1e-10, False, id="5.0"),
        # psi steps too far across the first table, which is rebuilt denser
        pytest.param(0.9, 0.2, 2.0, 0.162, 0.0081, 1e-12, True, id="rebuilt-table"),
    ])
    def test_translucent_double_matches_k_space(self, monkeypatch, v0, a, r, p, sigma_p,
                                                rel_tol, rebuilt):
        spec = WavePacketSpec("gaussian", p=p, sigma_p=sigma_p, x0=700.0)
        round_trip, calls = wavepacket._round_trip, []

        def recorded(k, *args):
            calls.append(np.array(k))
            return round_trip(k, *args)
        monkeypatch.setattr(wavepacket, "_round_trip", recorded)
        split = PotentialProfile(M, ((v0, a), (0.0, r / 2.0), (0.0, r / 2.0), (v0, a)))
        assert total_transmission(spec, PotentialProfile.double(M, v0, a, r), rel_tol=rel_tol) \
            == pytest.approx(total_transmission(spec, split, rel_tol=rel_tol), rel=rel_tol)
        # the psi tables: _round_trip calls on the whole window, evenly spaced
        lo, hi = spec.k_window
        tables = [k.size for k in calls
                  if k.size and np.array_equal(k, np.linspace(lo, hi, k.size))]
        assert len(tables) == 1 + rebuilt and tables == sorted(tables)

    def test_opaque_survey_ends_finite(self):
        rng = np.random.default_rng(22)
        for v0, a, r, p in rng.uniform([0.4, 8.0, 100.0, 0.1], [0.9, 20.0, 1000.0, 0.6],
                                       size=(150, 4)):
            spec = WavePacketSpec("gaussian", p=p, sigma_p=0.01 * p, x0=1000.0)
            got = total_transmission(spec, PotentialProfile.double(M, v0, a, r), rel_tol=1e-7)
            assert 0.0 < got < 1.0

    def test_absorption_table_matches_k_space(self):
        spec = WavePacketSpec("gaussian", p=0.35, sigma_p=0.004, x0=700.0)
        lo, hi = spec.k_window
        det = DetectorSpec(position=3050.0,
                           absorption=(list(np.linspace(lo, hi, 9)),
                                       [0.9, 0.8, 0.5, 0.6, 0.3, 0.4, 0.7, 0.2, 0.1]))
        double = PotentialProfile.double(M, 0.4, 2.5, 300.0)
        split = PotentialProfile(M, ((0.4, 2.5), (0.0, 100.0), (0.0, 200.0), (0.4, 2.5)))
        got = total_transmission(spec, double, alpha=det.absorption_at)
        assert got == pytest.approx(total_transmission(spec, split, alpha=det.absorption_at),
                                    rel=1e-10)
        assert got < 0.9 * total_transmission(spec, double)
