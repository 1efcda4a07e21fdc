"""Scattering amplitudes: closed forms, transfer matrices, detection data."""

from __future__ import annotations

import math
import re

import mpmath as mp
import numpy as np
import pytest

from tunnelkit import (
    AboveBarrierError,
    PhysicsDomainError,
    PotentialProfile,
    TotalReflectionError,
    amplitude_scan,
    barrier_functions,
    detection_coefficient,
    detection_phase_derivative,
    double_barrier_T,
    phase_split,
    piecewise_amplitudes,
    square_barrier_amplitudes,
    tunneling_window,
    unwrapped_transmission_phase,
)


def _random_tunneling_tuple(rng, m=1.0):
    v0 = rng.uniform(0.05, 0.95) * m
    k = rng.uniform(0.05, 0.95) * tunneling_window(v0, m)[1]
    d = rng.uniform(0.2, 20.0)
    return k, v0, d


class TestPotentialProfile:
    def test_validation(self):
        with pytest.raises(PhysicsDomainError):
            PotentialProfile(1.0, ((0.5, -1.0),))
        with pytest.raises(PhysicsDomainError):
            PotentialProfile(1.0, ((-0.1, 1.0),))
        with pytest.raises(PhysicsDomainError):
            PotentialProfile(1.0, ((1.0, 1.0),))  # V >= m
        with pytest.raises(PhysicsDomainError):
            PotentialProfile(0.0, ((0.5, 1.0),))

    def test_json_round_trip(self):
        prof = PotentialProfile.double(1.0, 0.4, 2.0, 7.0)
        again = PotentialProfile.from_dict(prof.to_dict())
        assert again == prof
        assert prof.to_dict() == {"mass": 1.0,
                                  "segments": [{"v": 0.4, "w": 2.0},
                                               {"v": 0.0, "w": 7.0},
                                               {"v": 0.4, "w": 2.0}]}

    def test_symmetry_helpers(self):
        dbl = PotentialProfile.double(1.0, 0.4, 2.0, 7.0)
        assert dbl.is_parity_symmetric()
        assert dbl.as_symmetric_double() == (0.4, 2.0, 7.0)
        assert dbl.width == pytest.approx(11.0)
        asym = PotentialProfile(1.0, ((0.4, 2.0), (0.2, 1.0)))
        assert not asym.is_parity_symmetric()
        assert asym.as_symmetric_double() is None
        assert PotentialProfile.double(1.0, 0.4, 2.0, 0.0).segments == ((0.4, 4.0),)


class TestBarrierFunctions:
    def test_hyperbolic_identity(self):
        rng = np.random.default_rng(21)
        for _ in range(300):
            k, v0, _ = _random_tunneling_tuple(rng)
            bf = barrier_functions(k, v0, 1.0)
            assert bf.rho**2 - bf.eta**2 == pytest.approx(1.0, abs=1e-12)

    def test_nonrelativistic_limit(self):
        # e_k -> k/lambda_k as m grows with k, V0 fixed in absolute units
        k, v0 = 0.1, 0.05
        devs = []
        for m in (10.0, 100.0):
            E = math.hypot(k, m)
            lam = math.sqrt(m * m - (E - v0) ** 2)
            devs.append(abs(barrier_functions(k, v0, m).e / (k / lam) - 1.0))
        assert devs[1] < devs[0] / 5.0
        assert devs[0] < 0.05

    def test_frozen_value(self):
        # independent 30-digit evaluation of the defining expression
        bf = barrier_functions(0.3, 0.5, 1.0)
        assert bf.e == pytest.approx(0.270080969935211692445429437312, rel=1e-14)

    def test_above_barrier_rejected(self):
        hi = tunneling_window(0.5, 1.0)[1]
        with pytest.raises(AboveBarrierError):
            barrier_functions(hi * 1.01, 0.5, 1.0)
        with pytest.raises(AboveBarrierError):
            barrier_functions(0.3, 0.0, 1.0)  # empty window at V0 = 0

    def test_array_matches_scalars(self):
        # scalars go through libm, arrays through numpy, whose hypot may differ
        # in the last bit; E - m and lambda^2 = m^2 - (E - V0)^2 magnify that
        # bit by cond = E/(E - m) + m^2/lambda^2 (about 10 mid-window)
        rng = np.random.default_rng(5)
        for v0 in (0.1, 0.5, 0.9):
            ks = np.sort(rng.uniform(1e-4, 1.0 - 1e-6, 200)) * tunneling_window(v0, 1.0)[1]
            arr = barrier_functions(ks, v0, 1.0)
            tol = 4.0 * np.finfo(float).eps * (arr.energy / (arr.energy - 1.0) + 1.0 / arr.lam ** 2)
            for i, k in enumerate(ks):
                bf = barrier_functions(float(k), v0, 1.0)
                for name in ("energy", "lam", "e", "rho"):
                    assert abs(getattr(arr, name)[i] / getattr(bf, name) - 1.0) <= tol[i]
                assert abs(arr.eta[i] - bf.eta) <= tol[i] * bf.rho  # eta crosses 0

    def test_array_with_one_momentum_outside_rejected(self):
        hi = tunneling_window(0.5, 1.0)[1]
        with pytest.raises(AboveBarrierError, match=re.escape(f"[{1.01 * hi}, {1.01 * hi}]")):
            barrier_functions(np.array([0.1, 0.2, 1.01 * hi, 0.3]), 0.5, 1.0)


class TestSquareBarrier:
    def test_free_limit(self):
        sd = square_barrier_amplitudes(0.7, 0.0, 5.0, 1.0)
        assert sd.T == 1.0 and sd.R == 0.0 and sd.A == 1.0

    def test_unitarity_property(self):
        rng = np.random.default_rng(7)
        for _ in range(400):
            k, v0, d = _random_tunneling_tuple(rng)
            sd = square_barrier_amplitudes(k, v0, d, 1.0)
            assert abs(sd.T) ** 2 + abs(sd.R) ** 2 == pytest.approx(1.0, abs=1e-10)

    def test_matches_transfer_matrix(self):
        prof = PotentialProfile.square(1.0, 0.5, 5.0)
        for k in np.linspace(0.02, 0.65, 41):
            closed = square_barrier_amplitudes(float(k), 0.5, 5.0, 1.0)
            transfer = piecewise_amplitudes(prof, float(k))
            assert abs(closed.T - transfer.T) < 1e-12
            assert abs(closed.R - transfer.R) < 1e-12

    def test_parity_symmetry(self):
        sd = square_barrier_amplitudes(0.3, 0.5, 5.0, 1.0)
        assert abs(sd.w) < 1e-10
        assert sd.A == pytest.approx(sd.T, rel=1e-12)
        assert sd.chi == pytest.approx(0.0, abs=1e-12)

    def test_opaque_scaling(self):
        # lambda d ~ 100: closed form stays finite and exact
        mp.mp.dps = 40
        k, v0, d, m = 0.2, 0.8, 120.0, 1.0
        sd = square_barrier_amplitudes(k, v0, d, m)
        E = mp.sqrt(mp.mpf(k) ** 2 + 1)
        lam = mp.sqrt(1 - (E - mp.mpf(v0)) ** 2)
        e = (lam / k) * (E - 1) / (1 - mp.sqrt(1 - lam**2))
        eta = (e - 1 / e) / 2
        ref = mp.e ** (-1j * k * d) / (mp.cosh(lam * d) - 1j * eta * mp.sinh(lam * d))
        assert abs(sd.T) > 0.0
        assert abs(complex(ref) - sd.T) < 1e-12 * abs(complex(ref))


class TestDoubleBarrier:
    def test_merge_identity(self):
        for k in np.linspace(0.05, 0.6, 13):
            merged = double_barrier_T(float(k), 0.5, 3.0, 0.0, 1.0)
            single = square_barrier_amplitudes(float(k), 0.5, 6.0, 1.0)
            assert abs(merged.T - single.T) < 1e-10

    def test_composition_identity(self):
        # closed form equals T0^2/(1 - R0^2 e^{2ik(r+a)}) pointwise
        a, r, v0, m = 3.0, 10.0, 0.5, 1.0
        for k in np.linspace(0.02, 0.65, 101):
            dbl = double_barrier_T(float(k), v0, a, r, m)
            s = square_barrier_amplitudes(float(k), v0, a, m)
            comp = s.T**2 / (1.0 - s.R**2 * np.exp(2j * k * (r + a)))
            assert abs(dbl.T - comp) < 1e-10

    def test_matches_transfer_matrix(self):
        prof = PotentialProfile.double(1.0, 0.5, 3.0, 10.0)
        for k in np.linspace(0.02, 0.65, 41):
            closed = double_barrier_T(float(k), 0.5, 3.0, 10.0, 1.0)
            transfer = piecewise_amplitudes(prof, float(k))
            assert abs(closed.T - transfer.T) < 1e-12

    def test_above_window_rejected(self):
        hi = tunneling_window(0.5, 1.0)[1]
        with pytest.raises(AboveBarrierError):
            double_barrier_T(hi * 1.05, 0.5, 3.0, 10.0, 1.0)

    def test_unitarity(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            k, v0, a = _random_tunneling_tuple(rng)
            r = rng.uniform(0.0, 50.0)
            sd = double_barrier_T(k, v0, a / 4, r, 1.0)
            assert abs(sd.T) ** 2 + abs(sd.R) ** 2 == pytest.approx(1.0, abs=1e-10)


class TestPiecewise:
    def test_empty_profile(self):
        sd = piecewise_amplitudes(PotentialProfile(1.0, ()), 0.4)
        assert sd.T == 1.0 and sd.R == 0.0

    def test_two_equal_segments_merge(self):
        prof = PotentialProfile(1.0, ((0.5, 2.0), (0.5, 2.0)))
        single = square_barrier_amplitudes(0.3, 0.5, 4.0, 1.0)
        sd = piecewise_amplitudes(prof, 0.3)
        assert abs(sd.T - single.T) < 1e-12

    def test_unitarity_random_profiles(self):
        rng = np.random.default_rng(23)
        m = 1.0
        for _ in range(300):
            n_seg = rng.integers(1, 4)
            segs = tuple((float(rng.uniform(0.05, 0.95)), float(rng.uniform(0.1, 30.0)))
                         for _ in range(n_seg))
            prof = PotentialProfile(m, segs)
            k = float(rng.uniform(0.01, 3.0))  # tunneling and above-barrier
            sd = piecewise_amplitudes(prof, k)
            assert abs(sd.T) ** 2 + abs(sd.R) ** 2 == pytest.approx(1.0, abs=1e-10)

    def test_parity_symmetric_profile_has_zero_overlap(self):
        prof = PotentialProfile(1.0, ((0.3, 2.0), (0.6, 3.0), (0.3, 2.0)))
        assert prof.is_parity_symmetric()
        ks = np.linspace(0.05, 1.5, 60)
        sd = amplitude_scan(prof, ks)
        assert np.max(np.abs(sd.w)) < 1e-10
        assert np.max(np.abs(sd.A - sd.T)) < 1e-10

    def test_many_segment_unitarity(self):
        rng = np.random.default_rng(41)
        segs = tuple((float(rng.uniform(0.05, 0.9)), float(rng.uniform(0.3, 6.0)))
                     for _ in range(8))
        prof = PotentialProfile(1.0, segs)
        ks = np.linspace(0.05, 2.0, 40)
        sd = amplitude_scan(prof, ks)
        flux = np.abs(sd.T) ** 2 + np.abs(sd.R) ** 2
        assert np.max(np.abs(flux - 1.0)) < 1e-10

    def test_rejects_bad_momentum(self):
        prof = PotentialProfile.square(1.0, 0.5, 2.0)
        with pytest.raises(PhysicsDomainError):
            piecewise_amplitudes(prof, 0.0)

    def test_scan_matches_scalar(self):
        prof = PotentialProfile(1.0, ((0.6, 4.0), (0.2, 3.0)))
        ks = np.linspace(0.1, 1.2, 7)
        scan = amplitude_scan(prof, ks)
        for i, k in enumerate(ks):
            one = piecewise_amplitudes(prof, float(k))
            assert abs(scan.T[i] - one.T) < 1e-14
            assert abs(scan.A[i] - one.A) < 1e-14


class TestDetectionCoefficient:
    def test_parity_symmetric(self):
        phi = 0.8
        T = 0.6 * np.exp(1j * phi)
        R = -1j * 0.8 * np.exp(1j * phi)
        w, A = detection_coefficient(T, R)
        assert w == pytest.approx(0.0, abs=1e-15)
        assert A == pytest.approx(T, rel=1e-14)

    def test_opaque_limit_formula(self):
        # A ~ (|T|/2)(1 + e^{2 i chi}) to leading order in |T|
        t_abs, chi, phi = 1e-4, 0.9, 0.3
        T = t_abs * np.exp(1j * phi)
        R = -1j * math.sqrt(1 - t_abs**2) * np.exp(1j * (phi + chi))
        _, A = detection_coefficient(T, R)
        approx = 0.5 * t_abs * (1 + np.exp(2j * chi)) * np.exp(1j * phi)
        assert abs(A - approx) < 1e-3 * abs(A)

    def test_chi_half_pi_kills_transmission(self):
        t_abs, phi = 1e-4, 0.3
        T = t_abs * np.exp(1j * phi)
        R = -1j * math.sqrt(1 - t_abs**2) * np.exp(1j * (phi + math.pi / 2))
        _, A = detection_coefficient(T, R)
        assert abs(A) ** 2 < 1e-7 * t_abs**2

    def test_rejects_nonunitary(self):
        with pytest.raises(PhysicsDomainError):
            detection_coefficient(0.9, 0.9)


class TestPhaseSplit:
    def test_free(self):
        assert phase_split(1.0 + 0j, 0.0 + 0j) == (1.0, 0.0, 0.0)

    def test_total_reflection_rejected(self):
        with pytest.raises(TotalReflectionError):
            phase_split(0.0, -1j)

    def test_square_scan_chi_zero_phi_continuous(self):
        prof = PotentialProfile.square(1.0, 0.5, 5.0)
        ks = np.linspace(0.02, 0.66, 400)
        sd = amplitude_scan(prof, ks)
        assert np.max(np.abs(sd.chi)) < 1e-10
        assert np.max(np.abs(np.diff(sd.phi))) < np.pi / 2

    def test_double_scan_phi_continuous_vs_fine_grid(self):
        # unwrap oracle: the same phase on a 10x finer grid, subsampled back
        prof = PotentialProfile.double(1.0, 0.5, 3.0, 10.0)
        ks = np.arange(0.05, 0.65, 1e-3)
        coarse = amplitude_scan(prof, ks).phi
        fine_k = np.arange(0.05, 0.65, 1e-4)
        fine = amplitude_scan(prof, fine_k).phi
        sub = fine[::10][: coarse.size]
        off = coarse[0] - sub[0]
        assert np.max(np.abs(coarse - sub - off)) < 1e-6
        # steep physical slopes at resonances are fine; branch slips are not
        assert np.max(np.abs(np.diff(coarse))) < 2 * np.pi - 1.0

    def test_refining_unwrapper_agrees(self):
        prof = PotentialProfile.double(1.0, 0.5, 3.0, 10.0)
        ks = np.linspace(0.05, 0.64, 250)
        scan = amplitude_scan(prof, ks).phi
        refined = unwrapped_transmission_phase(prof, ks)
        off = 2 * np.pi * round((scan[0] - refined[0]) / (2 * np.pi))
        assert np.max(np.abs(scan - refined - off)) < 1e-9


class TestPhaseDerivative:
    def test_free_is_zero(self):
        assert detection_phase_derivative(None, 0.3) == 0.0

    def test_square_matches_closed_form(self):
        # analytic: d(arg T)/dk = v * tau - d, tau from the closed form
        from tunnelkit import square_barrier_tunneling_time
        prof = PotentialProfile.square(1.0, 0.5, 5.0)
        for p in (0.1, 0.3, 0.55):
            v = p / math.hypot(p, 1.0)
            ref = v * square_barrier_tunneling_time(p, 0.5, 5.0, 1.0) - 5.0
            assert detection_phase_derivative(prof, p) == pytest.approx(ref, rel=1e-6)
