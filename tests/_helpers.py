"""Helpers shared by the test modules."""

from __future__ import annotations

import math

import numpy as np

from tunnelkit.kinematics import faddeeva_w


def _velocity(p: float, m: float = 1.0) -> float:
    return p / math.hypot(p, m)


def _erfc(z: complex) -> complex:
    """erfc through the Faddeeva function: erfc(z) = e^{-z^2} w(iz) for
    Re z >= 0, where iz lies in the upper half plane; otherwise, by
    w(-z) = 2 e^{-z^2} - w(z), erfc(z) = 2 - e^{-z^2} w(-iz)."""
    z = np.asarray(z, dtype=complex)
    if z.real >= 0.0:
        return complex(np.exp(-z * z) * faddeeva_w(1j * z))
    return complex(2.0 - np.exp(-z * z) * faddeeva_w(-1j * z))
