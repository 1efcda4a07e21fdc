"""Delay/tunneling times, resonances, decay rate, regime densities, fitting."""

from __future__ import annotations

import math
import warnings

import mpmath as mp
import numpy as np
import pytest

from tunnelkit import (
    ArrivalDistribution,
    DetectorSpec,
    PhysicsDomainError,
    PotentialProfile,
    RegimeWarning,
    WavePacketSpec,
    arrival_density,
    causality_mass,
    continuum_density,
    decay_rate,
    delay_time,
    detect_peaks,
    detection_phase_derivative,
    double_barrier_report,
    envelope_density,
    find_resonances,
    fit_exponential,
    multi_resonance_density,
    opaque_tunneling_time,
    peak_series_density,
    piecewise_amplitudes,
    resonance_density,
    square_barrier_tunneling_time,
    stationary_phase_time,
    tunneling_time,
    tunneling_window,
)

from _helpers import _velocity

M = 1.0


class TestDelayTime:
    def test_free_is_zero(self):
        assert delay_time(0.3, PotentialProfile(M, ())) == 0.0
        assert delay_time(0.3, PotentialProfile.square(M, 0.0, 5.0)) == 0.0

    def test_free_checks_mode_and_momentum(self):
        empty = PotentialProfile(M, ())
        assert tunneling_time(0.3, empty) == 0.0
        with pytest.raises(PhysicsDomainError, match="p > 0"):
            delay_time(-0.3, empty)

    def test_square_matches_closed_form_across_window(self):
        v0, d = 0.5, 5.0
        prof = PotentialProfile.square(M, v0, d)
        hi = tunneling_window(v0, M)[1]
        for p in np.linspace(0.05 * hi, 0.97 * hi, 9):
            p = float(p)
            t_d = delay_time(p, prof)
            ref = -d / _velocity(p) + square_barrier_tunneling_time(p, v0, d, M)
            assert t_d == pytest.approx(ref, rel=1e-6)

    def test_tunneling_times_on_arrays_match_scalars(self):
        # scalars and arrays take one numpy route: equal bit for bit
        v0 = 0.5
        ps = np.linspace(1e-3, 1.0 - 1e-6, 300) * tunneling_window(v0, M)[1]
        for d in (5.0, 5000.0):
            ref = [square_barrier_tunneling_time(float(p), v0, d, M) for p in ps]
            assert np.array_equal(square_barrier_tunneling_time(ps, v0, d, M), ref)
        ref = [opaque_tunneling_time(float(p), v0, M) for p in ps]
        assert np.array_equal(opaque_tunneling_time(ps, v0, M), ref)

    def test_double_barrier_doubling(self):
        dbl = PotentialProfile.double(M, 0.5, 3.0, 10.0)
        single = PotentialProfile.square(M, 0.5, 3.0)
        assert delay_time(0.3, dbl) == pytest.approx(
            2.0 * delay_time(0.3, single), abs=1e-8)

    def test_report_matches_phase_time(self):
        # closed form (report) against the transfer-matrix phase derivative,
        # away from small p, where the closed form loses digits to E - m
        v0, a, r, L, x0 = 0.4, 2.5, 300.0, 3050.0, 700.0
        dbl = PotentialProfile.double(M, v0, a, r)
        for p in (0.3, 0.35, 0.45):
            rep = double_barrier_report(p, v0, a, r, M, L=L, x0=x0)
            assert rep.t_d == pytest.approx(delay_time(p, dbl), rel=1e-14, abs=0.0)
            spec = WavePacketSpec("gaussian", p, 0.004, x0)
            assert rep.t0 == pytest.approx(stationary_phase_time(spec, dbl, L),
                                           rel=1e-14, abs=0.0)

    def test_composite_mode_differs(self):
        # the composite amplitude's delay oscillates through the resonances;
        # the first-peak delay does not follow it
        dbl = PotentialProfile.double(M, 0.5, 3.0, 10.0)
        composite = detection_phase_derivative(dbl, 0.3) / _velocity(0.3)
        assert composite != pytest.approx(delay_time(0.3, dbl), rel=1e-3)


class TestTunnelingTime:
    def test_closed_vs_finite_difference(self):
        prof = PotentialProfile.square(M, 0.5, 5.0)
        assert tunneling_time(0.3, prof) == pytest.approx(
            square_barrier_tunneling_time(0.3, 0.5, 5.0, M), rel=1e-6)

    def test_positive_across_window(self):
        # tau > 0, i.e. t_d > -d/v (the causal lower bound), across the window
        v0, d = 0.5, 5.0
        hi = tunneling_window(v0, M)[1]
        for p in np.linspace(0.02 * hi, 0.99 * hi, 25):
            tau = square_barrier_tunneling_time(float(p), v0, d, M)
            assert tau > 0.0

    def test_hartmann_saturation(self):
        p, v0 = 0.3, 0.5
        E = math.hypot(p, M)
        lam = math.sqrt(M * M - (E - v0) ** 2)
        tau_inf = opaque_tunneling_time(p, v0, M)
        d20 = 20.0 / lam
        assert abs(square_barrier_tunneling_time(p, v0, d20, M) - tau_inf) \
            < 1e-6 * tau_inf
        # monotone approach until the difference hits the double-precision
        # floor (the true gap ~ e^{-2 lambda d} crosses ~1e-16 tau near
        # lambda d = 16)
        gaps = [abs(square_barrier_tunneling_time(p, v0, x / lam, M) - tau_inf)
                for x in np.linspace(5.0, 14.0, 19)]
        assert all(b < a for a, b in zip(gaps, gaps[1:]))


class TestResonances:
    def test_roots_are_transparent(self):
        ks = find_resonances(0.5, 3.0, 10.0, M)
        assert ks.size > 0
        prof = PotentialProfile.double(M, 0.5, 3.0, 10.0)
        for k in ks:
            assert abs(piecewise_amplitudes(prof, float(k)).T) > 1.0 - 1e-6

    def test_count_grows_with_separation(self):
        n10 = find_resonances(0.5, 3.0, 10.0, M).size
        n40 = find_resonances(0.5, 3.0, 40.0, M).size
        assert n40 > n10

    def test_count_matches_transmission_maxima_scan(self):
        # independent oracle: count |T| maxima above 0.999 on a dense grid
        v0, a, r = 0.5, 3.0, 10.0
        ks = find_resonances(v0, a, r, M)
        prof = PotentialProfile.double(M, v0, a, r)
        grid = np.linspace(1e-4, tunneling_window(v0, M)[1] * (1 - 1e-9), 40001)
        absT = np.abs(piecewise_amplitudes(prof, grid).T)
        inner = (absT[1:-1] > absT[:-2]) & (absT[1:-1] >= absT[2:]) & (absT[1:-1] > 0.999)
        assert int(np.sum(inner)) == ks.size

    def test_spacing_large_separation(self):
        v0, a, r = 0.5, 3.0, 100.0
        ks = find_resonances(v0, a, r, M, k_window=(0.25, 0.45))
        spacing = np.diff(ks)
        p = float(ks[ks.size // 2])
        tau = square_barrier_tunneling_time(p, v0, a, M)
        phi_prime = _velocity(p) * tau - a
        expected = math.pi / (r + a + phi_prime)
        assert np.median(spacing) == pytest.approx(expected, rel=0.02)

    def test_window_validation(self):
        with pytest.raises(PhysicsDomainError):
            find_resonances(0.5, 3.0, 10.0, M, k_window=(0.1, 5.0))

    @pytest.mark.parametrize("window", [(0.1, 0.21540812726851968),
                                        (0.18464323474442637, 0.3)])
    def test_window_end_on_a_root(self, window):
        # one end lies on a root of the (0.4, 2.5, 100) double to the last bit,
        # where psi rounds so that the root's odd multiple of pi falls just
        # outside the grid's phases. The search must not index past its grid
        # at the upper end, nor warn and drop the root at the lower end
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ks = find_resonances(0.4, 2.5, 100.0, M, k_window=window)
        assert ks.size > 0 and window[0] < ks.min() and ks.max() < window[1]

    def test_no_barrier_has_no_tunneling_window(self):
        ks = find_resonances(0.0, 3.0, 10.0, M)
        assert isinstance(ks, np.ndarray) and ks.size == 0

    @pytest.mark.parametrize("r", [10.0, 400.0, 6000.0])
    def test_report_phase_meets_resonance_condition(self, r):
        # the report and the root search share one phase: beta_p = psi(p) + pi
        # mod 2 pi, so at a root |beta_p| is within the bisection's 1e-10 stop
        # times psi' = 2r + 2 v tau_p (it reads at most 0.31 of that)
        v0, a = 0.4, 2.5
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RegimeWarning)  # r = 6000 drops roots
            ks = find_resonances(v0, a, r, M)
        assert ks.size > 0
        for k in ks.tolist():
            rep = double_barrier_report(k, v0, a, r, M)
            assert abs(rep.beta_p) <= (2.0 * r + 2.0 * _velocity(k) * rep.tau_p) * 1e-10


class TestDecayRate:
    def test_definition_identity(self):
        # Gamma dt = 2 |T0p|^2 exactly
        p, v0, a, r = 0.3, 0.5, 3.0, 10.0
        rep = double_barrier_report(p, v0, a, r, M)
        assert rep.gamma_p * rep.dt == pytest.approx(2.0 * rep.T0p_abs2, rel=1e-12)
        assert decay_rate(p, v0, a, r, M) == pytest.approx(rep.gamma_p, rel=1e-12)

    def test_monotone_in_separation(self):
        rates = [decay_rate(0.3, 0.5, 3.0, r, M) for r in (5.0, 10.0, 40.0, 100.0)]
        assert all(b < a for a, b in zip(rates, rates[1:]))

    def test_warns_when_transparent(self):
        with pytest.warns(RegimeWarning):
            decay_rate(0.3, 0.2, 0.5, 10.0, M)

    def test_opaque_wall_rate_is_zero(self):
        # |T0p| underflows to 0: the rate needs only |T0p|, and beta_p takes
        # phi_p from the closed-form phase, which stays finite
        assert decay_rate(0.35, 0.9, 1000.0, 300.0, M) == 0.0
        rep = double_barrier_report(0.35, 0.9, 1000.0, 300.0, M, L=30000.0, x0=700.0)
        assert rep.gamma_p == 0.0 and rep.R0p_abs2 == 1.0
        assert all(math.isfinite(x) for x in (rep.beta_p, rep.t0, rep.dt))

    def test_report_at_underflowing_momentum_is_domain_error(self):
        with pytest.raises(PhysicsDomainError, match="E - m underflows"):
            double_barrier_report(1e-9, 0.5, 3.0, 10.0, M)

    def test_report_invariants(self):
        rep = double_barrier_report(0.3, 0.5, 3.0, 10.0, M, L=500.0, x0=100.0)
        v = _velocity(0.3)
        assert rep.dt == pytest.approx(2.0 * (10.0 / v + rep.tau_p), rel=1e-12)
        assert rep.t0 > 0.0
        payload = rep.to_dict()
        assert payload["units"]["times"] == "1/m"


@pytest.fixture(scope="module")
def peaks_setup():
    p, v0, a, r = 0.35, 0.4, 2.5, 300.0
    rep = double_barrier_report(p, v0, a, r, M)
    v = _velocity(p)
    sigma_x = v * rep.dt / 8.0
    spec = WavePacketSpec("gaussian", p=p, sigma_p=1.0 / (2 * sigma_x), x0=5 * sigma_x)
    L = 10.0 * (2 * a + r)
    rep = double_barrier_report(p, v0, a, r, M, L=L, x0=spec.x0, sigma_p=spec.sigma_p)
    times = np.linspace(rep.t0 - 1.5 * rep.dt, rep.t0 + 12.5 * rep.dt, 2400)
    dist = peak_series_density(times, spec, L, v0, a, r, M)
    return p, v0, a, r, spec, L, rep, times, dist


class TestPeakSeries:
    def test_first_peak_at_t0(self, peaks_setup):
        *_, rep, times, dist = peaks_setup
        t_first = detect_peaks(dist)[0][0]
        assert abs(t_first - rep.t0) < times[1] - times[0]

    def test_height_ratio_is_R0_fourth(self, peaks_setup):
        *_, rep, times, dist = peaks_setup
        heights = np.array([h for _, h in detect_peaks(dist)])
        ratios = heights[1:6] / heights[:5]
        assert np.allclose(ratios, rep.R0p_abs2**2, rtol=5e-3)

    def test_spacing(self, peaks_setup):
        *_, rep, times, dist = peaks_setup
        ts = np.array([t for t, _ in detect_peaks(dist)])
        assert np.mean(np.diff(ts)) == pytest.approx(rep.dt, rel=0.01)

    def test_overlap_warning(self):
        p, v0, a, r = 0.35, 0.4, 2.5, 20.0
        rep = double_barrier_report(p, v0, a, r, M)
        v = _velocity(p)
        sigma_x = v * rep.dt  # far too wide
        spec = WavePacketSpec("gaussian", p=p, sigma_p=1.0 / (2 * sigma_x),
                              x0=5 * sigma_x)
        times = np.linspace(1000.0, 9000.0, 64)
        with pytest.warns(RegimeWarning):
            peak_series_density(times, spec, 10.0 * (2 * a + r), v0, a, r, M)

    @staticmethod
    def _full_sum(times, spec, L, v0, a, r):
        """Every term n <= n_max, at every time: the sum the window shortens."""
        rep = double_barrier_report(spec.p, v0, a, r, M, L=L, x0=spec.x0)
        v = _velocity(spec.p)
        n = np.arange(math.ceil(math.log(1e-8) / math.log(rep.R0p_abs2)) + 1)
        coeff = rep.R0p_abs2 ** n * np.exp(1j * rep.beta_p * n)
        amp = spec.position_envelope(v * (times[:, None] - rep.t0 - n * rep.dt)) @ coeff
        return v * rep.T0p_abs2 ** 2 * np.abs(amp) ** 2

    @pytest.mark.parametrize("shape, r, spacings", [
        ("gaussian", 6000.0, 8.0),  # the item-7 train
        # e^{-sigma_p |x|} reaches 41/sigma_p, 6.4 times the Gaussian reach
        ("lorentzian", 6000.0, 8.0),
        ("gaussian", 20.0, 1.0),  # the overlapping peaks of test_overlap_warning
    ], ids=["item7", "lorentzian", "overlap"])
    def test_window_matches_full_sum(self, shape, r, spacings):
        p, v0, a = 0.35, 0.4, 2.5
        v = _velocity(p)
        sigma_x = v * double_barrier_report(p, v0, a, r, M).dt / spacings
        sigma_p = 1.0 / (2 * sigma_x) if shape == "gaussian" else 1.0 / (math.sqrt(2) * sigma_x)
        spec = WavePacketSpec(shape, p=p, sigma_p=sigma_p, x0=5 * sigma_x)
        L = 10.0 * (2 * a + r)
        rep = double_barrier_report(p, v0, a, r, M, L=L, x0=spec.x0)
        times = np.linspace(rep.t0 - 8.0 * sigma_x / v, rep.t0 + 16.5 * rep.dt, 2800)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RegimeWarning)
            dist = peak_series_density(times, spec, L, v0, a, r, M)
        full = self._full_sum(times, spec, L, v0, a, r)
        assert dist.metadata["n_max"] == 445
        assert np.max(np.abs(dist.density - full)) <= 1e-15 * np.max(full)

    def test_opaque_wall_is_finite(self):
        # |R0p|^2 rounds to 1.0 at a = 28: the series never decays, n_max is
        # inf, and each time still sums only the peaks it can see
        p, v0, a, r, L = 0.35, 0.4, 28.0, 3000.0, 40000.0
        spec = WavePacketSpec("gaussian", p=p, sigma_p=5e-4, x0=5000.0)
        rep = double_barrier_report(p, v0, a, r, M, L=L, x0=spec.x0)
        assert rep.R0p_abs2 == 1.0
        times = np.linspace(rep.t0 - 2.0 * rep.dt, rep.t0 + 4.5 * rep.dt, 600)
        dist = peak_series_density(times, spec, L, v0, a, r, M)
        assert dist.metadata["n_max"] == math.inf
        assert np.all(np.isfinite(dist.density)) and np.all(dist.density >= 0.0)
        heights = [h for _, h in detect_peaks(dist)]
        assert len(heights) == 5 and np.ptp(heights) <= 1e-3 * max(heights)


class TestEnvelope:
    def test_integral_and_onset(self, peaks_setup):
        p, v0, a, r, spec, L, rep, times, dist = peaks_setup
        tt = np.linspace(rep.t0 - 100.0, rep.t0 + 25.0 / rep.gamma_p, 200_001)
        total = np.trapezoid(envelope_density(tt, rep), tt)
        assert total == pytest.approx(rep.transmission_p, rel=1e-4)
        assert envelope_density(rep.t0 - 1.0, rep) == 0.0
        assert envelope_density(rep.t0 + 1e-9, rep) == pytest.approx(
            rep.transmission_p * rep.gamma_p, rel=1e-6)

    def test_needs_t0(self):
        rep = double_barrier_report(0.35, 0.4, 2.5, 300.0, M)  # no L and x0: no t0
        with pytest.raises(PhysicsDomainError, match="lacks t0"):
            envelope_density(0.0, rep)

    def test_cumulative_fraction_tracks_peak_series(self, peaks_setup):
        # compare mass accumulation profiles (each normalized to its own
        # window total) three decay times in
        p, v0, a, r, spec, L, rep, _, _ = peaks_setup
        t_end = rep.t0 + 3.0 / rep.gamma_p
        times = np.linspace(rep.t0 - 1.5 * rep.dt, rep.t0 + 6.0 / rep.gamma_p,
                            6000)
        dist = peak_series_density(times, spec, L, v0, a, r, M)
        env = envelope_density(times, rep)
        cut = times <= t_end
        frac_ps = (np.trapezoid(dist.density[cut], times[cut])
                   / np.trapezoid(dist.density, times))
        frac_env = (np.trapezoid(env[cut], times[cut]) / np.trapezoid(env, times))
        assert frac_ps == pytest.approx(frac_env, rel=0.10)


@pytest.fixture(scope="module")
def cont():
    p, v0, a = 0.35, 0.4, 2.8  # |T0p|^2 ~ 0.026
    vp = _velocity(p)
    sigma_p = 2.0e-4
    tau = square_barrier_tunneling_time(p, v0, a, M)
    r = vp * (0.5 / (sigma_p * vp) / 2.0 - tau)
    spec = WavePacketSpec("gaussian", p=p, sigma_p=sigma_p, x0=5 / (2 * sigma_p))
    L = 10.0 * (2 * a + r)
    rep = double_barrier_report(p, v0, a, r, M, L=L, x0=spec.x0, sigma_p=sigma_p)
    trans = 1.0 / (sigma_p * vp)
    times = np.linspace(rep.t0 - 8 * trans, rep.t0 + 3.0 / rep.gamma_p,
                        int((8 * trans + 3.0 / rep.gamma_p) / (0.25 * trans)))
    return spec, L, v0, a, r, rep, times, continuum_density(
        times, spec, L, v0, a, r, M)


class TestContinuum:
    def test_requires_gaussian(self):
        spec = WavePacketSpec("lorentzian", p=0.3, sigma_p=0.001, x0=100.0)
        with pytest.raises(PhysicsDomainError):
            continuum_density(np.linspace(0, 1, 8), spec, 100.0, 0.4, 2.8, 100.0, M)

    def test_early_suppression(self, cont):
        spec, L, v0, a, r, rep, times, dist = cont
        vp = _velocity(spec.p)
        early = times < rep.t0 - 5.0 / (spec.sigma_p * vp)
        assert np.max(dist.density[early]) < 1e-6 * np.max(dist.density)

    def test_peak_near_t0(self, cont):
        spec, L, v0, a, r, rep, times, dist = cont
        t_peak = times[int(np.argmax(dist.density))]
        assert abs(t_peak - rep.t0) < times[1] - times[0]

    def test_late_rate_matches_gamma(self, cont):
        spec, L, v0, a, r, rep, times, dist = cont
        vp = _velocity(spec.p)
        window = (rep.t0 + 8.0 / (spec.sigma_p * vp), float(times[-1]))
        fit = fit_exponential(dist, window)
        assert fit.rate == pytest.approx(rep.gamma_p, rel=0.02)

    def test_regime_warning(self):
        p, v0, a, r = 0.35, 0.4, 2.5, 3000.0
        vp = _velocity(p)
        rep = double_barrier_report(p, v0, a, r, M)
        sigma_p = 4.0 / (vp * rep.dt)  # sigma v dt = 4 > 3
        spec = WavePacketSpec("gaussian", p=p, sigma_p=sigma_p, x0=1e4)
        times = np.linspace(1e5, 2e5, 64)
        with pytest.warns(RegimeWarning):
            continuum_density(times, spec, 10 * (2 * a + r), v0, a, r, M)


def _narrow_continuum(sigma_p=2e-5, r=300.0):
    """Double barrier V0 0.5, a 1 at sigma_p 2e-5: b/2A has an imaginary part
    near -70, where e^{-bc + b^2/4A^2} alone overflows."""
    p, v0, a = 0.3, 0.5, 1.0
    spec = WavePacketSpec("gaussian", p=p, sigma_p=sigma_p, x0=5.0 / (2 * sigma_p))
    L = 10.0 * (2 * a + r)
    rep = double_barrier_report(p, v0, a, r, M, L=L, x0=spec.x0, sigma_p=sigma_p)
    return spec, L, v0, a, r, rep


def _continuum_mpmath(t, spec, rep):
    """The continuum closed form at 30 digits, erfc and exponentials unsplit."""
    mp.mp.dps = 30
    v = mp.mpf(spec.p) / mp.sqrt(mp.mpf(spec.p) ** 2 + 1)
    A = mp.mpf(spec.sigma_p) * v * mp.mpf(rep.dt)
    b = -mp.log(mp.mpf(rep.R0p_abs2)) - 1j * mp.mpf(rep.beta_p)
    c = (mp.mpf(t) - mp.mpf(rep.t0)) / mp.mpf(rep.dt)
    lap = mp.exp(-b * c + b * b / (4 * A * A)) * mp.erfc(-A * c + b / (2 * A))
    amp = (2 / mp.pi) ** mp.mpf(0.25) * mp.sqrt(mp.mpf(spec.sigma_p)) * (
        mp.sqrt(mp.pi) / (2 * A) * lap + mp.exp(-(A * c) ** 2) / 2)
    return float(v * mp.mpf(rep.T0p_abs2) ** 2 * abs(amp) ** 2)


class TestContinuumOverflow:
    """The closed form through w(z): finite wherever e^{-bc + b^2/4A^2} or
    erfc alone would overflow."""

    def test_narrow_packet_is_finite(self):
        spec, L, v0, a, r, rep = _narrow_continuum()
        trans = 1.0 / (spec.sigma_p * _velocity(spec.p))
        times = np.linspace(rep.t0 - 4.0 * trans, rep.t0 + 3.0 / rep.gamma_p, 1500)
        with np.errstate(over="raise", invalid="raise"):
            dens = continuum_density(times, spec, L, v0, a, r, M).density
        assert np.all(np.isfinite(dens)) and np.all(dens >= 0.0)

    def test_grid_far_before_t0_is_finite(self):
        spec, L, v0, a, r, rep = _narrow_continuum(sigma_p=2e-4)
        times = np.linspace(rep.t0 - 1e5 * rep.dt, rep.t0 + 3.0 / rep.gamma_p, 400)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RegimeWarning)
            with np.errstate(over="raise", invalid="raise"):
                dens = continuum_density(times, spec, L, v0, a, r, M).density
        assert np.all(np.isfinite(dens)) and np.all(dens >= 0.0)

    def test_matches_mpmath_closed_form(self):
        spec, L, v0, a, r, rep = _narrow_continuum()
        trans = 1.0 / (spec.sigma_p * _velocity(spec.p))
        times = np.linspace(rep.t0 - 4.0 * trans, rep.t0 + 3.0 / rep.gamma_p, 1500)
        dens = continuum_density(times, spec, L, v0, a, r, M).density
        peak = float(np.max(dens))
        for j in np.linspace(0, times.size - 1, 10).astype(int):
            ref = _continuum_mpmath(times[j], spec, rep)
            assert abs(dens[j] - ref) <= 1e-12 * peak


@pytest.fixture(scope="module")
def resonance_setup():
    v0, a, r = 0.4, 2.5, 400.0
    res = find_resonances(v0, a, r, M, k_window=(0.25, 0.45))
    k0 = float(res[int(np.argmin(np.abs(res - 0.35)))])
    gamma = decay_rate(k0, v0, a, r, M)
    vp = _velocity(k0)
    sigma_p = 4.0 * gamma / vp  # gamma/(sigma v) = 0.25: trapping visible
    spec = WavePacketSpec("lorentzian", p=k0, sigma_p=sigma_p,
                          x0=5.0 / (math.sqrt(2) * sigma_p))
    L = 10.0 * (2 * a + r)
    rep = double_barrier_report(k0, v0, a, r, M, L=L, x0=spec.x0, sigma_p=sigma_p)
    times = np.linspace(rep.t0 - 4.0 / (sigma_p * vp), rep.t0 + 6.0 / gamma, 6000)
    return v0, a, r, k0, gamma, spec, L, rep, times


class TestResonanceDensity:
    def test_requires_lorentzian(self):
        spec = WavePacketSpec("gaussian", p=0.3, sigma_p=0.001, x0=100.0)
        with pytest.raises(PhysicsDomainError):
            resonance_density(np.linspace(0, 1, 8), spec, 100.0, 0.3, 0.4, 2.5,
                              400.0, M)

    def test_early_branch_rate(self, resonance_setup):
        v0, a, r, k0, gamma, spec, L, rep, times = resonance_setup
        dist = resonance_density(times, spec, L, k0, v0, a, r, M)
        vp = _velocity(spec.p)
        early = (times > rep.t0 - 3.5 / (spec.sigma_p * vp)) \
            & (times < rep.t0 - 1.0 / (spec.sigma_p * vp))
        t_e, y_e = times[early], dist.density[early]
        slope = np.polyfit(t_e, np.log(y_e), 1)[0]
        assert slope == pytest.approx(2.0 * vp * spec.sigma_p, rel=1e-3)

    def test_exact_resonance_pure_exponential_tail(self, resonance_setup):
        v0, a, r, k0, gamma, spec, L, rep, times = resonance_setup
        dist = resonance_density(times, spec, L, k0, v0, a, r, M)
        vp = _velocity(spec.p)
        window = (rep.t0 + 10.0 / (spec.sigma_p * vp), float(times[-1]))
        fit = fit_exponential(dist, window)
        assert fit.rate == pytest.approx(gamma, rel=0.02)
        assert fit.r_squared > 0.999

    def test_offset_warning(self, resonance_setup):
        v0, a, r, k0, gamma, spec, L, rep, times = resonance_setup
        off = WavePacketSpec("lorentzian", p=k0 - 5 * spec.sigma_p,
                             sigma_p=spec.sigma_p, x0=spec.x0)
        with pytest.warns(RegimeWarning):
            resonance_density(times[:64], off, L, k0, v0, a, r, M)


class TestMultiResonance:
    def test_single_reduces_to_resonance_density(self, resonance_setup):
        v0, a, r, k0, gamma, spec, L, rep, times = resonance_setup
        one = multi_resonance_density(times, spec, L, [k0], v0, a, r, M)
        ref = resonance_density(times, spec, L, k0, v0, a, r, M)
        assert np.array_equal(one.density, ref.density)

    def test_needs_a_resonance(self, resonance_setup):
        v0, a, r, k0, gamma, spec, L, rep, times = resonance_setup
        with pytest.raises(PhysicsDomainError, match="at least one resonance"):
            multi_resonance_density(times, spec, L, [], v0, a, r, M)

    def test_beat_frequency(self):
        v0, a, r = 0.4, 2.5, 400.0
        res = find_resonances(v0, a, r, M, k_window=(0.30, 0.42))
        i = int(np.argmin(np.abs(res - 0.35)))
        k1, k2 = float(res[i]), float(res[i + 1])
        p = 0.5 * (k1 + k2)
        vp = _velocity(p)
        spec = WavePacketSpec("lorentzian", p=p, sigma_p=(k2 - k1),
                              x0=5.0 / (math.sqrt(2) * (k2 - k1)))
        L = 10.0 * (2 * a + r)
        rep = double_barrier_report(p, v0, a, r, M, L=L, x0=spec.x0)
        gamma = decay_rate(k1, v0, a, r, M)
        times = np.linspace(rep.t0, rep.t0 + 2.0 / gamma, 20000)
        dist = multi_resonance_density(times, spec, L, [k1, k2], v0, a, r, M)
        tail = times > rep.t0 + 10.0 / (spec.sigma_p * vp)
        sub = ArrivalDistribution(times=times[tail], density=dist.density[tail])
        ts = np.array([t for t, _ in detect_peaks(sub)])
        period = float(np.mean(np.diff(ts)))
        assert 2 * math.pi / period == pytest.approx(vp * (k2 - k1), rel=0.02)

    def test_two_equal_resonances_bounded(self, resonance_setup):
        v0, a, r, k0, gamma, spec, L, rep, times = resonance_setup
        res = find_resonances(v0, a, r, M, k_window=(0.30, 0.42))
        i = int(np.argmin(np.abs(res - k0)))
        k1, k2 = float(res[i]), float(res[i + 1])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RegimeWarning)
            both = multi_resonance_density(times, spec, L, [k1, k2], v0, a, r, M)
            d1 = resonance_density(times, spec, L, k1, v0, a, r, M)
            d2 = resonance_density(times, spec, L, k2, v0, a, r, M)
        bound = 4.0 * np.maximum(d1.density, d2.density)
        assert np.all(both.density <= bound * (1 + 1e-12) + 1e-300)


class TestFitting:
    def test_exact_exponential(self):
        t = np.linspace(0.0, 30.0, 400)
        dist = ArrivalDistribution(times=t, density=np.exp(-0.3 * t))
        fit = fit_exponential(dist, (0.0, 30.0))
        assert fit.rate == pytest.approx(0.3, abs=1e-6)
        assert fit.r_squared > 1 - 1e-12

    def test_peak_mode_recovers_gamma(self, peaks_setup):
        *_, rep, times, dist = peaks_setup
        fit = fit_exponential(dist, (rep.t0 - 0.5 * rep.dt, float(times[-1])),
                              on_peaks=True)
        assert fit.rate == pytest.approx(rep.gamma_p, rel=0.05)

    def test_constant_data_degenerate(self):
        t = np.linspace(0.0, 10.0, 64)
        dist = ArrivalDistribution(times=t, density=np.ones_like(t))
        with pytest.warns(RegimeWarning) as rec:
            fit = fit_exponential(dist, (0.0, 10.0))
        assert fit.rate == 0.0
        assert fit.degenerate
        assert rec[0].message.context == {"density": "direct", "window": (0.0, 10.0),
                                          "n_points": 64}

    def test_low_r2_flagged(self):
        t = np.linspace(0.0, 10.0, 200)
        y = np.exp(-0.3 * t) * (1.0 + 0.9 * np.sin(40.0 * t)) + 1.0
        dist = ArrivalDistribution(times=t, density=y, metadata={"formula": "continuum"})
        with pytest.warns(RegimeWarning) as rec:
            fit = fit_exponential(dist, (0.0, 10.0))
        assert fit.r_squared < 0.9
        ctx = rec[0].message.context
        assert (ctx["density"], ctx["n_points"], ctx["r_squared"]) == ("continuum", 200,
                                                                      fit.r_squared)

    def test_rejects_sparse_window(self):
        t = np.linspace(0.0, 10.0, 64)
        dist = ArrivalDistribution(times=t, density=np.exp(-t))
        with pytest.raises(PhysicsDomainError):
            fit_exponential(dist, (9.0, 10.0))


class TestDetectPeaks:
    def test_single_bump_subgrid_location(self):
        t = np.linspace(-10.0, 10.0, 201)
        center = 0.237
        dist = ArrivalDistribution(times=t, density=np.exp(-((t - center) ** 2)))
        peaks = detect_peaks(dist)
        assert len(peaks) == 1
        assert abs(peaks[0][0] - center) < 0.1 * (t[1] - t[0])

    def test_flat_zero_empty(self):
        t = np.linspace(0.0, 1.0, 32)
        assert detect_peaks(ArrivalDistribution(times=t, density=np.zeros_like(t))) == []

    def test_requires_uniform_grid(self):
        t = np.array([0.0, 1.0, 3.0, 4.0])
        with pytest.raises(PhysicsDomainError):
            detect_peaks(ArrivalDistribution(times=t, density=np.ones(4)))
        # 1e-13 of jitter is below 1e-9 of the step but above 8 ulp of max|t| = 2
        t = np.linspace(1.0, 2.0, 11)
        t[5] += 1e-13
        with pytest.raises(PhysicsDomainError):
            detect_peaks(ArrivalDistribution(times=t, density=np.ones(11)))

    def test_linspace_far_from_zero_is_uniform(self):
        # the steps of this linspace differ by about 1 ulp of 1e5, above 1e-9
        # of the step 0.01, yet within the time-grid kernel's 8 ulp of max|t|
        t = np.linspace(1e5, 1e5 + 10.0, 1001)
        peaks = detect_peaks(ArrivalDistribution(times=t, density=np.exp(-(t - 1e5 - 5.0) ** 2)))
        assert len(peaks) == 1
        assert abs(peaks[0][0] - (1e5 + 5.0)) < 0.1 * (t[1] - t[0])

    @pytest.mark.filterwarnings("ignore::tunnelkit.RegimeWarning")
    def test_arrival_grid_far_from_zero_is_uniform(self):
        # 20001 times over tbar - 10 sigma_t ... tbar - 5 sigma_t, step 0.0435 at
        # t ~ 3.5e5: the kernel reads the grid as uniform (141 blocks of 142),
        # and detect_peaks reads it the same way
        prof = PotentialProfile.square(M, 0.5, 5.0)
        spec = WavePacketSpec("gaussian", p=0.3, sigma_p=0.01, x0=500.0)
        det = DetectorSpec(position=1e5)
        t_bar = stationary_phase_time(spec, prof, det.position)
        sigma_t = spec.sigma_x / _velocity(spec.p)
        times = np.linspace(t_bar - 10.0 * sigma_t, t_bar - 5.0 * sigma_t, 20001)
        dist = arrival_density(times, spec, prof, det)
        assert list(dist.metadata["quadrature"]["time_blocks"]) == [141, 142]
        peaks = detect_peaks(dist)
        assert len(peaks) == 1
        assert peaks[0][0] == pytest.approx(348146.457, abs=1e-3)


class TestCausalityMass:
    def test_full_axis_is_one(self):
        t = np.linspace(0.0, 10.0, 64)
        dist = ArrivalDistribution(times=t, density=np.exp(-t))
        assert causality_mass(dist, 4.0, 1.0, -math.inf) == 1.0

    def test_zero_before_grid(self):
        t = np.linspace(100.0, 200.0, 64)
        dist = ArrivalDistribution(times=t, density=np.ones_like(t))
        assert causality_mass(dist, 5.0, 1.0, 0.0) == 0.0

    def test_zero_density_has_no_mass(self):
        t = np.linspace(0.0, 10.0, 64)
        dist = ArrivalDistribution(times=t, density=np.zeros_like(t))
        assert causality_mass(dist, 4.0, 1.0, -math.inf) == 0.0
