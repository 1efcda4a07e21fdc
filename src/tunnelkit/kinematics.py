"""Relativistic dispersion, junction weights, and the Faddeeva function w(z).

Scalars and arrays take one numpy route: a scalar is read as a 0-d array and
the result unboxed with ``[()]`` to a numpy scalar (np.float64, np.complex128:
subclasses of float and complex); a real one equals its array element bit for bit.

Units: natural units hbar = c = 1 throughout; momenta and energies in units
of the particle mass m, lengths and times in 1/m.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import PhysicsDomainError

_SQRT_PI = math.sqrt(math.pi)


@dataclass(frozen=True)
class Kinematics:
    """On-shell data E = sqrt(k^2 + m^2), v = k/E at a scalar momentum (numpy
    scalars), or arrays aligned with an array of momenta."""

    k: object
    energy: object
    velocity: object


def relativistic_kinematics(k, m: float) -> Kinematics:
    """Energy and velocity of a free particle of momentum k (any sign), a
    scalar or a numpy array."""
    if not (math.isfinite(m) and m > 0):
        raise PhysicsDomainError(f"mass must be finite and positive, got {m}")
    k = np.asarray(k, dtype=float)
    bad = k[~np.isfinite(k)]
    if bad.size:
        raise PhysicsDomainError(
            f"momenta must be finite, got {bad.size} in [{bad.min()}, {bad.max()}]")
    energy = np.hypot(k, m)
    return Kinematics(k=k[()], energy=energy[()], velocity=(k / energy)[()])


def matching_weight(kappa_sq, m: float):
    """Junction weight F = (sqrt(m^2 + kappa_sq) - m)/kappa_sq = 1/(sqrt(m^2 + kappa_sq) + m).

    ``kappa_sq`` is the signed squared local wavenumber: positive in
    propagating segments, -lambda^2 in evanescent ones. The second form has
    no cancellation and no 0/0, so it holds to rounding through kappa_sq = 0
    (limit 1/(2m)) and up to kappa_sq = -m^2. Accepts scalars or arrays, real
    or complex (a complex step); Re kappa_sq < -m^2 has no real energy branch
    and is rejected.
    """
    x = np.asarray(kappa_sq)
    if not math.isfinite(m) or m <= 0:
        raise PhysicsDomainError(f"mass must be finite and positive, got {m}")
    if (x.real < -m * m).any():
        raise PhysicsDomainError("kappa_sq < -m^2: no real energy branch (lambda^2 > m^2)")
    return (1.0 / (np.sqrt(m * m + x) + m))[()]


def _weideman_coefficients(n: int, scale: float) -> np.ndarray:
    # a_1..a_n of Weideman's series, highest power first for np.polyval: the
    # Fourier coefficients of e^{-t^2} (L^2 + t^2) at t = L tan(theta/2)
    m = 2 * n
    t = scale * np.tan(np.arange(1 - m, m) * math.pi / (2 * m))
    f = np.concatenate([[0.0], np.exp(-t * t) * (scale * scale + t * t)])
    a = np.fft.fft(np.fft.fftshift(f)).real / (2 * m)
    return a[n:0:-1]


# Weideman, SIAM J. Numer. Anal. 31, 1497 (1994): N = 40 terms, L = sqrt(N/sqrt 2)
_W_TERMS = 40
_W_SCALE = math.sqrt(_W_TERMS / math.sqrt(2.0))
_W_COEFFS = _weideman_coefficients(_W_TERMS, _W_SCALE)


def faddeeva_w(z) -> np.ndarray:
    """Faddeeva function w(z) = e^{-z^2} erfc(-iz) for Im z >= 0, elementwise.

    Weideman's rational series: with Z = (L + iz)/(L - iz),
    w(z) = 2 p(Z)/(L - iz)^2 + 1/(sqrt(pi) (L - iz)), p the degree-39
    polynomial of _W_COEFFS. |w| <= 1 on the closed upper half plane, so
    nothing overflows; the relative error is about 1e-15 there (measured
    against mpmath on |z| <= 20).
    """
    z = np.asarray(z, dtype=complex)
    d = _W_SCALE - 1j * z
    return 2.0 * np.polyval(_W_COEFFS, (_W_SCALE + 1j * z) / d) / (d * d) + 1.0 / (_SQRT_PI * d)
