"""Dispersion relations, junction weight, and the complex erfc."""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np
import pytest

from tunnelkit import (
    PhysicsDomainError,
    erfc_complex,
    matching_weight,
    relativistic_kinematics,
)


def _erfc_taylor_oracle(z: complex, terms: int = 50) -> complex:
    """High-precision Maclaurin oracle, independent of the implementation."""
    mp.mp.dps = 50
    zz = mp.mpc(z.real, z.imag)
    acc = mp.mpc(0)
    term = zz
    for n in range(terms):
        acc += term / (2 * n + 1)
        term *= -zz * zz / (n + 1)
    return complex(1 - 2 / mp.sqrt(mp.pi) * acc)


class TestRelativisticKinematics:
    def test_rest_particle(self):
        kin = relativistic_kinematics(0.0, 1.0)
        assert kin.energy == 1.0
        assert kin.velocity == 0.0

    def test_pythagorean_triple(self):
        kin = relativistic_kinematics(3.0, 4.0)
        assert kin.energy == pytest.approx(5.0, rel=1e-15)
        assert kin.velocity == pytest.approx(0.6, rel=1e-15)

    def test_ultrarelativistic(self):
        kin = relativistic_kinematics(1e6, 1.0)
        assert kin.velocity < 1.0
        assert 1.0 - kin.velocity < 1e-12

    def test_rejects_nonfinite(self):
        with pytest.raises(PhysicsDomainError):
            relativistic_kinematics(float("nan"), 1.0)
        with pytest.raises(PhysicsDomainError):
            relativistic_kinematics(1.0, 0.0)

    def test_arrays_match_numpy_and_scalars_match_array_elements(self):
        # scalars and arrays take one numpy route, so they agree bit for bit
        ks = np.linspace(-2.0, 3.0, 120).reshape(8, 15)
        kin = relativistic_kinematics(ks, 0.7)
        E = np.hypot(ks, 0.7)
        assert np.array_equal(kin.energy, E)
        assert np.array_equal(kin.velocity, ks / E)
        for k, e, v in zip(ks.ravel(), kin.energy.ravel(), kin.velocity.ravel()):
            one = relativistic_kinematics(float(k), 0.7)
            assert isinstance(one.energy, float) and isinstance(one.velocity, float)
            assert one.energy == e and one.velocity == v

    def test_scalar_error_names_the_momentum(self):
        with pytest.raises(PhysicsDomainError, match=r"got 1 in \[nan, nan\]"):
            relativistic_kinematics(float("nan"), 1.0)

    def test_array_error_names_offending_range(self):
        with pytest.raises(PhysicsDomainError, match=r"got 2 in \[-inf, inf\]"):
            relativistic_kinematics(np.array([0.1, np.inf, 0.2, -np.inf]), 1.0)

    def test_mass_shell_invariant(self):
        # E^2 - k^2 = m^2 to 1e-12 relative, k log-uniform over 12 decades
        rng = np.random.default_rng(11)
        for m in (1.0, 0.37, 211.0):
            ks = 10.0 ** rng.uniform(-6, 6, 200) * m
            for k in ks:
                kin = relativistic_kinematics(float(k), m)
                lhs = kin.energy**2 - k**2
                assert abs(lhs - m * m) <= 1e-12 * max(kin.energy**2, m * m)


class TestMatchingWeight:
    def test_continuity_at_zero(self):
        m = 1.0
        for x in (1e-8, -1e-8):
            assert abs(matching_weight(x, m) - 1.0 / (2 * m)) < 1e-7 / m

    def test_exact_values(self):
        m = 2.0
        assert matching_weight(m * m, m) == pytest.approx((math.sqrt(2) - 1) / m, rel=1e-14)
        assert matching_weight(-m * m, m) == pytest.approx(1.0 / m, rel=1e-14)

    def test_rejects_below_branch(self):
        with pytest.raises(PhysicsDomainError):
            matching_weight(-1.5, 1.0)

    def test_array_input_matches_scalar(self):
        xs = np.array([-0.9, -1e-10, 0.0, 1e-10, 0.5, 4.0])
        arr = matching_weight(xs, 1.0)
        for x, got in zip(xs, arr):
            assert got == matching_weight(float(x), 1.0)

    def test_against_mpmath_near_and_far_from_zero(self):
        # (sqrt(1 + x) - 1)/x at 40 digits (m = 1, so m^2 is exact); the
        # cancellation-free form 1/(sqrt(1 + x) + 1) holds to rounding on
        # both sides of x = 0, where the subtraction lost up to 1e-10
        mp.mp.dps = 40
        xs = np.concatenate([s * np.geomspace(1e-12, 1.0 - 1e-9, 200) for s in (1.0, -1.0)])
        for x, got in zip(xs, matching_weight(xs, 1.0)):
            ref = (mp.sqrt(1 + mp.mpf(float(x))) - 1) / mp.mpf(float(x))
            assert abs(got - ref) <= 1e-15 * ref


class TestErfcComplex:
    def test_at_zero(self):
        assert erfc_complex(0.0) == pytest.approx(1.0, abs=1e-15)

    def test_frozen_value_at_one(self):
        # 50-term Taylor oracle at 50 digits: 0.15729920705028513...
        assert erfc_complex(1.0).real == pytest.approx(0.157299207050285131, rel=1e-12)
        assert erfc_complex(1.0).imag == pytest.approx(0.0, abs=1e-15)
        assert erfc_complex(1.0) == pytest.approx(_erfc_taylor_oracle(1.0), rel=1e-12)

    def test_reflection_at_sample_point(self):
        z = 0.7 + 0.3j
        assert erfc_complex(-z) == pytest.approx(2.0 - erfc_complex(z), rel=1e-12)

    def test_reflection_and_conjugation_on_disk(self):
        rng = np.random.default_rng(3)
        count = 0
        while count < 100:
            z = complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
            if abs(z) > 5.0:
                continue
            count += 1
            w = erfc_complex(z)
            scale = max(1.0, abs(w), abs(erfc_complex(-z)))
            assert abs(erfc_complex(z.conjugate()) - w.conjugate()) <= 1e-10 * scale
            assert abs(w + erfc_complex(-z) - 2.0) <= 1e-10 * scale

    def test_real_axis_against_math_erfc(self):
        for x in np.linspace(0.01, 20.0, 301):
            ref = math.erfc(float(x))
            assert abs(erfc_complex(float(x)) - ref) <= 1e-12 * ref

    def test_disk20_against_mpmath(self):
        mp.mp.dps = 30
        rng = np.random.default_rng(5)
        for _ in range(200):
            z = complex(rng.uniform(-20, 20), rng.uniform(-20, 20))
            if abs(z) > 20:
                continue
            ref = complex(mp.erfc(mp.mpc(z.real, z.imag)))
            assert abs(erfc_complex(z) - ref) <= 1e-10 * abs(ref)

    def test_rejects_nonfinite(self):
        with pytest.raises(PhysicsDomainError):
            erfc_complex(complex(float("inf"), 0.0))

    def test_array_wrapper(self):
        zs = np.array([0.3 + 0.1j, 2.5 - 1.0j, -4.0 + 0.5j])
        out = erfc_complex(zs)
        for z, w in zip(zs, out):
            assert w == pytest.approx(erfc_complex(complex(z)), rel=1e-13)
