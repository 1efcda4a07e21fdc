"""Relativistic dispersion, evanescent scales, junction weights, complex erfc.

Units: natural units hbar = c = 1 throughout; momenta and energies in units
of the particle mass m, lengths and times in 1/m.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import PhysicsDomainError, PropagatingSegmentError

_SQRT_PI = math.sqrt(math.pi)

# Relative half-width of the Taylor branch of the junction weight around
# kappa_sq = 0 (in units of m^2); avoids the 0/0 at the tunneling threshold.
_WEIGHT_TAYLOR_CUT = 1e-6


@dataclass(frozen=True)
class Kinematics:
    """On-shell data E = sqrt(k^2 + m^2), v = k/E at a scalar momentum, or
    arrays aligned with an array of momenta."""

    k: object
    energy: object
    velocity: object


def _xp(k):
    """math for a scalar k, numpy for an array: scalar results stay those of
    libm, from which numpy's vectorized exp, tanh and hypot differ in the last bit."""
    return np if np.ndim(k) else math


def relativistic_kinematics(k, m: float) -> Kinematics:
    """Energy and velocity of a free particle of momentum k (any sign), a
    scalar or a numpy array."""
    if not (math.isfinite(m) and m > 0):
        raise PhysicsDomainError(f"mass must be finite and positive, got {m}")
    xp = _xp(k)
    if xp is np:
        k = np.asarray(k, dtype=float)
        bad = k[~np.isfinite(k)]
        if bad.size:
            raise PhysicsDomainError(
                f"momenta must be finite, got {bad.size} in [{bad.min()}, {bad.max()}]")
    elif not math.isfinite(k):
        raise PhysicsDomainError(f"momentum must be finite, got {k}")
    energy = xp.hypot(k, m)
    return Kinematics(k=k, energy=energy, velocity=k / energy)


def evanescent_scale(E: float, V0: float, m: float) -> float:
    """Decay constant lambda = sqrt(m^2 - (E - V0)^2) inside a segment.

    Valid only while |E - V0| <= m; otherwise the in-segment solution is
    oscillatory and a PropagatingSegmentError carries the local wavenumber.
    """
    if not all(math.isfinite(x) for x in (E, V0, m)) or m <= 0:
        raise PhysicsDomainError(f"need finite inputs and m > 0, got E={E}, V0={V0}, m={m}")
    gap = E - V0
    if abs(gap) > m:
        local_k = math.sqrt(gap * gap - m * m)
        raise PropagatingSegmentError(
            f"|E - V0| = {abs(gap)} exceeds m = {m}: propagating segment, "
            f"local wavenumber {local_k}",
            local_wavenumber=local_k,
        )
    return math.sqrt(max(m * m - gap * gap, 0.0))


def matching_weight(kappa_sq, m: float):
    """Junction weight F = (sqrt(m^2 + kappa_sq) - m) / kappa_sq.

    ``kappa_sq`` is the signed squared local wavenumber: positive in
    propagating segments, -lambda^2 in evanescent ones. One analytic formula
    covers both; a 2-term Taylor branch keeps it smooth through kappa_sq = 0
    (limit 1/(2m)). Accepts scalars or arrays. kappa_sq < -m^2 has no real
    energy branch and is rejected.
    """
    x = np.asarray(kappa_sq, dtype=float)
    if not math.isfinite(m) or m <= 0:
        raise PhysicsDomainError(f"mass must be finite and positive, got {m}")
    if np.any(x < -m * m):
        raise PhysicsDomainError("kappa_sq < -m^2: no real energy branch (lambda^2 > m^2)")
    msq = m * m
    small = np.abs(x) < _WEIGHT_TAYLOR_CUT * msq
    safe = np.where(small, msq, x)  # dummy where the Taylor branch is used
    out = np.where(small,
                   1.0 / (2.0 * m) - x / (8.0 * m ** 3),
                   (np.sqrt(msq + safe) - m) / safe)
    if np.ndim(kappa_sq) == 0:
        return float(out)
    return out


def _erfc_taylor(z: complex) -> complex:
    # Maclaurin series of erf; accurate wherever cancellation against the
    # peak term stays mild (|z| small or z near the imaginary axis).
    zsq = z * z
    term = z  # z^(2n+1) / n!
    acc = 0j
    n = 0
    while True:
        acc += term / (2 * n + 1)
        n += 1
        term *= -zsq / n
        if abs(term) / (2 * n + 1) < 1e-18 * max(abs(acc), 1e-300) and n > 4:
            break
        if n > 4000:  # unreachable for |z| <= ~25
            break
    return 1.0 - 2.0 / _SQRT_PI * acc


def _erfc_cf(z: complex) -> complex:
    # Laplace continued fraction, modified Lentz recursion:
    # erfc(z) = z e^{-z^2}/sqrt(pi) / (z^2 + 1/2/(1 + 1/(z^2 + 3/2/(1 + ...))))
    tiny = 1e-300
    zsq = z * z
    f = zsq if abs(zsq) > tiny else tiny
    C = f
    D = 0j
    for i in range(1, 500):
        a = 0.5 * i
        b = 1.0 if (i % 2 == 1) else zsq
        D = b + a * D
        if abs(D) < tiny:
            D = tiny
        C = b + a / C
        if abs(C) < tiny:
            C = tiny
        D = 1.0 / D
        delta = C * D
        f *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    return z / _SQRT_PI * cmath.exp(-zsq) / f


def erfc_complex(z) -> complex:
    """Complementary error function for complex argument.

    Faddeeva-style split: Maclaurin series where it is cancellation-safe,
    Laplace continued fraction elsewhere, reflection erfc(-z) = 2 - erfc(z)
    for Re z < 0. Relative error below 1e-12 on |z| <= 20.
    """
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise PhysicsDomainError(f"erfc_complex needs a finite argument, got {z}")
    if z.real < 0.0:
        return 2.0 - erfc_complex(-z)
    if abs(z) <= 2.0 or z.real <= 1.5:
        return _erfc_taylor(z)
    return _erfc_cf(z)


def erfc_complex_array(z) -> np.ndarray:
    """Elementwise erfc_complex over an array."""
    arr = np.asarray(z, dtype=complex)
    flat = arr.ravel()
    out = np.empty(flat.shape, dtype=complex)
    for i, zi in enumerate(flat):
        out[i] = erfc_complex(zi)
    return out.reshape(arr.shape)
