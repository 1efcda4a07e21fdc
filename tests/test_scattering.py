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
    barrier_functions,
    detection_coefficient,
    detection_phase_derivative,
    double_barrier_T,
    find_resonances,
    phase_split,
    piecewise_amplitudes,
    square_barrier_amplitudes,
    tunneling_window,
)
from tunnelkit.cli import _parse_barrier
from tunnelkit.scattering import _transfer_TR, detection_amplitude_scan


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
        with pytest.raises(PhysicsDomainError, match="inter-barrier distance"):
            PotentialProfile.double(1.0, 0.4, 2.0, -1.0)

    def test_json_round_trip(self):
        prof = PotentialProfile.double(1.0, 0.4, 2.0, 7.0)
        assert _parse_barrier(prof.to_dict()) == prof
        assert prof.to_dict() == {"mass": 1.0,
                                  "segments": [{"v": 0.4, "w": 2.0},
                                               {"v": 0.0, "w": 7.0},
                                               {"v": 0.4, "w": 2.0}]}

    def test_symmetry_helpers(self):
        dbl = PotentialProfile.double(1.0, 0.4, 2.0, 7.0)
        assert dbl.as_symmetric_double() == (0.4, 2.0, 7.0)
        assert dbl.width == pytest.approx(11.0)
        asym = PotentialProfile(1.0, ((0.4, 2.0), (0.2, 1.0)))
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
        # scalars and arrays take one numpy route, so a scalar call equals
        # the matching array element bit for bit
        rng = np.random.default_rng(5)
        for v0 in (0.1, 0.5, 0.9):
            ks = np.sort(rng.uniform(1e-4, 1.0 - 1e-6, 200)) * tunneling_window(v0, 1.0)[1]
            arr = barrier_functions(ks, v0, 1.0)
            for i, k in enumerate(ks):
                bf = barrier_functions(float(k), v0, 1.0)
                for name in ("energy", "lam", "e", "eta", "rho"):
                    assert getattr(bf, name) == getattr(arr, name)[i], name

    def test_scalar_momentum_where_e_underflows_rejected(self):
        # E - m underflows below k ~ 1.5e-8 m: the scalar route names k, the
        # array route keeps e = 0 with eta = -inf, rho = inf
        with pytest.raises(PhysicsDomainError, match=re.escape("k = 1e-09")):
            barrier_functions(1e-9, 0.5, 1.0)
        arr = barrier_functions(np.array([1e-9, 0.3]), 0.5, 1.0)
        assert arr.e[0] == 0.0 and arr.eta[0] == -np.inf and arr.rho[0] == np.inf
        assert np.isfinite(arr.rho[1])

    def test_array_with_one_momentum_outside_rejected(self):
        hi = tunneling_window(0.5, 1.0)[1]
        with pytest.raises(AboveBarrierError, match=re.escape(f"[{1.01 * hi}, {1.01 * hi}]")):
            barrier_functions(np.array([0.1, 0.2, 1.01 * hi, 0.3]), 0.5, 1.0)


class TestSquareBarrier:
    @pytest.mark.parametrize("d", [0.0, -1.0])
    def test_rejects_non_positive_width(self, d):
        with pytest.raises(PhysicsDomainError, match="width must be positive"):
            square_barrier_amplitudes(0.3, 0.5, d, 1.0)

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
        assert phase_split(sd.T, sd.R)[2] == pytest.approx(0.0, abs=1e-12)

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
    @pytest.mark.parametrize("a, r", [(0.0, 10.0), (-1.0, 10.0), (3.0, -1.0)])
    def test_rejects_bad_geometry(self, a, r):
        with pytest.raises(PhysicsDomainError, match="need a > 0 and r >= 0"):
            double_barrier_T(0.3, 0.5, a, r, 1.0)

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

    def test_array_matches_scalars(self):
        # numpy's complex multiply rounds differently on scalars and arrays,
        # so the complex closed forms agree to rounding, not bit for bit
        rng = np.random.default_rng(5)
        for v0 in (0.1, 0.5, 0.9):
            ks = np.sort(rng.uniform(1e-4, 1.0 - 1e-6, 200)) * tunneling_window(v0, 1.0)[1]
            for amplitudes in (lambda k: square_barrier_amplitudes(k, v0, 5.0, 1.0),
                               lambda k: double_barrier_T(k, v0, 3.0, 10.0, 1.0)):
                arr = amplitudes(ks)
                for i, k in enumerate(ks):
                    one = amplitudes(float(k))
                    for name in ("T", "R", "A"):
                        ref = getattr(arr, name)[i]
                        assert abs(getattr(one, name) - ref) <= 1e-15 * abs(ref), name

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

    def test_empty_profile_is_free(self):
        # the transfer-matrix path gives R = 0 and a real T exactly; |T - 1| is
        # a rounding of 2ic/2ic, which numpy divides by multiplying with 1/(2c)
        prof = PotentialProfile(1.0, ())
        sd = piecewise_amplitudes(prof, np.linspace(0.05, 2.0, 40))
        assert np.all(sd.R == 0.0) and np.all(sd.T.imag == 0.0) and np.all(sd.A == sd.T)
        assert np.max(np.abs(sd.T - 1.0)) <= np.finfo(float).eps
        assert detection_phase_derivative(prof, 0.3) == 0.0
        # a free run's A_k on a packet-sized scan: 1 to within an ulp
        amp = detection_amplitude_scan(prof, np.linspace(0.2, 0.4, 200_001))
        assert np.max(np.abs(amp - 1.0)) <= 2.3e-16

    def test_empty_momentum_scan_gives_empty_fields(self):
        prof = PotentialProfile.square(1.0, 0.5, 2.0)
        sd = piecewise_amplitudes(prof, [])
        for name in ("k", "T", "R", "w", "A"):
            assert np.shape(getattr(sd, name)) == (0,), name
        assert detection_amplitude_scan(prof, []).shape == (0,)

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
        ks = np.linspace(0.05, 1.5, 60)
        sd = piecewise_amplitudes(prof, ks)
        assert np.max(np.abs(sd.w)) < 1e-10
        assert np.max(np.abs(sd.A - sd.T)) < 1e-10

    def test_many_segment_unitarity(self):
        rng = np.random.default_rng(41)
        segs = tuple((float(rng.uniform(0.05, 0.9)), float(rng.uniform(0.3, 6.0)))
                     for _ in range(8))
        prof = PotentialProfile(1.0, segs)
        ks = np.linspace(0.05, 2.0, 40)
        sd = piecewise_amplitudes(prof, ks)
        flux = np.abs(sd.T) ** 2 + np.abs(sd.R) ** 2
        assert np.max(np.abs(flux - 1.0)) < 1e-10

    def test_rejects_bad_momentum(self):
        prof = PotentialProfile.square(1.0, 0.5, 2.0)
        with pytest.raises(PhysicsDomainError):
            piecewise_amplitudes(prof, 0.0)
        with pytest.raises(PhysicsDomainError, match="got 2 momenta"):
            piecewise_amplitudes(prof, np.array([0.3, np.inf, 0.4, -0.1]))

    def test_scan_matches_scalar(self):
        prof = PotentialProfile(1.0, ((0.6, 4.0), (0.2, 3.0)))
        ks = np.linspace(0.1, 1.2, 7)
        scan = piecewise_amplitudes(prof, ks)
        for i, k in enumerate(ks):
            one = piecewise_amplitudes(prof, float(k))
            assert abs(scan.T[i] - one.T) < 1e-14
            assert abs(scan.A[i] - one.A) < 1e-14


def _bits(z):
    """The two 64-bit patterns of a complex number: -0.0 differs from 0.0."""
    return np.array([z], dtype=complex).view(np.uint64).tolist()


@pytest.mark.parametrize("segments, ks", [
    # both heights' windows end inside the scan (0.8307 and 1.2490), and the
    # second k is the first segment's threshold itself
    (((0.3, 4.0), (0.6, 1.5)),
     np.append(np.linspace(0.7, 1.35, 40), tunneling_window(0.3, 1.0)[1])),
    (((0.4, 2.5), (0.0, 120.0), (0.4, 2.5)), np.linspace(0.9, 1.05, 31)),
    ((), np.linspace(0.05, 2.0, 9)),
    (((0.9, 2000.0),), np.linspace(1.55, 1.68, 27)),  # opaque: T underflows below 1.6155
], ids=["steps", "double", "empty", "opaque-wall"])
def test_mixed_branch_scan_matches_single_momenta_bit_for_bit(segments, ks):
    # one _segment_product call holds propagating and evanescent nodes of the
    # same segment; each node must come out as if evaluated alone. Alone is a
    # one-element array: numpy rounds complex scalar arithmetic differently
    prof = PotentialProfile(1.0, segments)
    for v, _ in segments:
        edge = tunneling_window(v, 1.0)[1]
        assert v == 0.0 or ks.min() < edge < ks.max()
    scan = piecewise_amplitudes(prof, ks)
    theta = detection_phase_derivative(prof, ks)
    for i, k in enumerate(ks):
        one = piecewise_amplitudes(prof, ks[i:i + 1])
        for name in ("T", "R", "A"):
            assert _bits(getattr(scan, name)[i]) == _bits(getattr(one, name)[0]), (name, k)
        assert theta[i] == detection_phase_derivative(prof, float(k)), k


@pytest.mark.parametrize("segments, ks", [
    (((0.4, 2.5), (0.0, 300.0), (0.4, 2.5)), np.linspace(0.5, 1.5, 41)),  # the README double
    (((0.9, 2000.0),), np.linspace(1.2, 2.0, 33)),
    ((), np.linspace(0.05, 2.0, 17)),
], ids=["readme-double", "opaque-wall", "empty"])
def test_mixed_batch_matches_single_branch_batches_bit_for_bit(segments, ks):
    # a batch that mixes tunneling and above-barrier momenta takes the gather
    # and scatter path of each wall; the same momenta split at the walls'
    # threshold take the whole-row paths. Both must run one arithmetic
    prof = PotentialProfile(1.0, segments)
    edge = tunneling_window(max(v for v, _ in segments), 1.0)[1] if segments else 1.0
    ks = np.random.default_rng(3).permutation(ks)  # interleave the two kinds
    below = ks < edge
    assert below.any() and not below.all()
    mixed = piecewise_amplitudes(prof, ks)
    mixed_A = detection_amplitude_scan(prof, ks)
    mixed_theta = detection_phase_derivative(prof, ks)
    for part in (below, ~below):
        split = piecewise_amplitudes(prof, ks[part])
        for name in ("T", "R", "w", "A"):
            assert _bits(getattr(mixed, name)[part]) == _bits(getattr(split, name)), name
        assert _bits(mixed_A[part]) == _bits(detection_amplitude_scan(prof, ks[part]))
        assert _bits(mixed_theta[part]) == _bits(detection_phase_derivative(prof, ks[part]))


def _transfer_oracle(segments, k, m):
    """T, R of the carried vector (g, F g') at 50 digits. A complex kappa
    covers propagating and evanescent segments with one formula."""
    return tuple(complex(x) for x in _transfer_oracle_mp(segments, k, m))


def _transfer_oracle_mp(segments, k, m):
    mp.mp.dps = 50
    k, m = mp.mpf(k), mp.mpf(m)
    E = mp.sqrt(k * k + m * m)

    def weight(x):
        return 1 / (mp.sqrt(m * m + x) + m)

    M = mp.eye(2)
    for v, w in segments:
        ksq = (E - v) ** 2 - m * m
        kap, w = mp.sqrt(mp.mpc(ksq)), mp.mpf(w)
        snw = mp.sin(kap * w) / kap if ksq != 0 else w
        M = mp.matrix([[mp.cos(kap * w), snw / weight(ksq)],
                       [-ksq * weight(ksq) * snw, mp.cos(kap * w)]]) * M
    c = k * weight(k * k)
    out = mp.exp(-1j * k * sum(mp.mpf(w) for _, w in segments))
    D = c * c * M[0, 1] - M[1, 0] + 1j * c * (M[0, 0] + M[1, 1])
    NR = M[1, 0] + c * c * M[0, 1] + 1j * c * (M[1, 1] - M[0, 0])
    return 2j * c * out / D, out * NR / D


def _phase_derivative_oracle(segments, k, m, h="1e-22"):
    """d(arg A_k)/dk by a central difference of the 50-digit transfer matrix."""
    def amplitude(kk):
        T, R = _transfer_oracle_mp(segments, kk, m)
        w = mp.re(mp.conj(T) * R)
        return (T - w * R) / (1 - w * w)

    mp.mp.dps = 50
    k, h = mp.mpf(k), mp.mpf(h)
    return float(mp.im(mp.log(amplitude(k + h) / amplitude(k - h))) / (2 * h))


@pytest.mark.parametrize("segments", [((0.5, 3.0), (0.2, 2.0)),
                                      ((0.3, 1e-6), (0.6, 4.0), (0.3, 1e-6))],
                         ids=["two", "thin-edges"])
def test_transfer_matches_mpmath_at_segment_thresholds(segments):
    # at E - V = m a segment turns from evanescent to propagating: kappa -> 0,
    # where sin(phase)/kappa and -expm1(-2 phase)/(2 kappa) stay exact to
    # rounding; 1e-9 off the threshold the thin segments' phase is ~1e-11
    for v, _ in segments:
        kth = tunneling_window(v, 1.0)[1]
        ks = kth * np.array([1.0 - 1e-9, 1.0, 1.0 + 1e-9])
        T, R = _transfer_TR(segments, ks, 1.0)
        for k, t, r in zip(ks, T, R):
            t_ref, r_ref = _transfer_oracle(segments, float(k), 1.0)
            assert abs(t - t_ref) <= 1e-12 * abs(t_ref)
            assert abs(r - r_ref) <= 1e-12 * abs(r_ref)


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
        sd = piecewise_amplitudes(prof, ks)
        _, phi, chi = phase_split(sd.T, sd.R)
        assert np.max(np.abs(chi)) < 1e-10
        assert np.max(np.abs(np.diff(phi))) < np.pi / 2

    def test_double_scan_phi_continuous_vs_fine_grid(self):
        # unwrap oracle: the same phase on a 10x finer grid, subsampled back
        prof = PotentialProfile.double(1.0, 0.5, 3.0, 10.0)
        ks = np.arange(0.05, 0.65, 1e-3)
        sd = piecewise_amplitudes(prof, ks)
        coarse = phase_split(sd.T, sd.R)[1]
        sd = piecewise_amplitudes(prof, np.arange(0.05, 0.65, 1e-4))
        fine = phase_split(sd.T, sd.R)[1]
        sub = fine[::10][: coarse.size]
        off = coarse[0] - sub[0]
        assert np.max(np.abs(coarse - sub - off)) < 1e-6
        # steep physical slopes at resonances are fine; branch slips are not
        assert np.max(np.abs(np.diff(coarse))) < 2 * np.pi - 1.0


class TestPhaseDerivative:
    def test_free_is_zero(self):
        assert detection_phase_derivative(PotentialProfile(1.0, ()), 0.3) == 0.0

    def test_square_matches_closed_form(self):
        # analytic: d(arg T)/dk = v * tau - d, tau from the closed form
        from tunnelkit import square_barrier_tunneling_time
        prof = PotentialProfile.square(1.0, 0.5, 5.0)
        for p in (0.1, 0.3, 0.55):
            v = p / math.hypot(p, 1.0)
            ref = v * square_barrier_tunneling_time(p, 0.5, 5.0, 1.0) - 5.0
            assert detection_phase_derivative(prof, p) == pytest.approx(ref, rel=1e-13, abs=0.0)

    def test_opaque_matches_closed_form(self):
        # |T| ~ e^{-1700} underflows, but the scale drops out of theta'
        from tunnelkit import square_barrier_tunneling_time
        prof = PotentialProfile.square(1.0, 0.9, 2000.0)
        p = 0.3
        ref = p / math.hypot(p, 1.0) * square_barrier_tunneling_time(p, 0.9, 2000.0, 1.0) - 2000.0
        assert detection_phase_derivative(prof, p) == pytest.approx(ref, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("half_widths", [0.0, 0.5, 2.0, 10.0])
    def test_narrow_resonance_matches_mpmath(self, half_widths):
        # r = 6000: the resonance near k = 0.300457 has half-width 5.6e-7 in k,
        # and theta' swings from 1.8e6 on it to 1.2e4 ten half-widths away
        prof = PotentialProfile.double(1.0, 0.5, 3.0, 6000.0)
        k0 = float(find_resonances(0.5, 3.0, 6000.0, 1.0, k_window=(0.3004, 0.3005))[0])
        k = k0 + half_widths * 5.6e-7
        ref = _phase_derivative_oracle(prof.segments, k, 1.0)
        assert detection_phase_derivative(prof, k) == pytest.approx(ref, rel=1e-9)

    def test_arrays_match_scalars_bit_for_bit(self):
        for prof in (PotentialProfile.square(1.0, 0.5, 5.0),
                     PotentialProfile.double(1.0, 0.5, 3.0, 6000.0),
                     PotentialProfile(1.0, ((0.5, 3.0), (0.0, 6000.0), (0.5, 3.1)))):
            ks = np.concatenate([np.linspace(0.05, 1.2, 40), 0.300457 + 1e-7 * np.arange(-5, 6)])
            got = detection_phase_derivative(prof, ks)
            ref = [detection_phase_derivative(prof, float(k)) for k in ks]
            assert np.array_equal(got, ref)
        free = PotentialProfile(1.0, ())
        assert np.array_equal(detection_phase_derivative(free, ks), np.zeros_like(ks))

    def test_rejects_nonpositive_momentum(self):
        with pytest.raises(PhysicsDomainError, match="p > 0"):
            detection_phase_derivative(PotentialProfile.square(1.0, 0.5, 5.0),
                                       np.array([0.3, 0.0]))
