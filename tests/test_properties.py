"""Property tests: erfc identities, transfer-matrix unitarity and reciprocity,
closed forms against the transfer-matrix path.

Examples are derandomized, so every run draws the same cases.
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from tunnelkit import PotentialProfile, double_barrier_T, square_barrier_amplitudes
from tunnelkit.kinematics import faddeeva_w
from tunnelkit.scattering import _transfer_TR

M = 1.0
_PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=40)

disk20 = st.complex_numbers(max_magnitude=20.0, allow_nan=False, allow_infinity=False)
heights = st.floats(0.0, 0.95)
barrier_heights = st.floats(0.05, 0.95)
widths = st.floats(0.1, 30.0)
segments = st.lists(st.tuples(heights, widths), min_size=1, max_size=4)


def _erfc(z: complex) -> complex:
    """erfc through the Faddeeva function: erfc(z) = e^{-z^2} w(iz) for
    Re z >= 0, where iz lies in the upper half plane; otherwise, by
    w(-z) = 2 e^{-z^2} - w(z), erfc(z) = 2 - e^{-z^2} w(-iz)."""
    z = np.asarray(z, dtype=complex)
    if z.real >= 0.0:
        return complex(np.exp(-z * z) * faddeeva_w(1j * z))
    return complex(2.0 - np.exp(-z * z) * faddeeva_w(-1j * z))


@_PROPERTY
@given(disk20)
def test_erfc_conjugation(z):
    w = _erfc(z)
    assert abs(_erfc(z.conjugate()) - w.conjugate()) <= 1e-14 * max(1.0, abs(w))


@_PROPERTY
@given(disk20)
def test_erfc_reflection(z):
    w, wm = _erfc(z), _erfc(-z)
    assert abs(w + wm - 2.0) <= 1e-14 * max(1.0, abs(w), abs(wm))


@_PROPERTY
@given(disk20)
def test_erfc_against_mpmath(z):
    mp.mp.dps = 30
    ref = complex(mp.erfc(mp.mpc(z.real, z.imag)))
    # for Re z < 0 the value is 2 - erfc(-z): rounding scales with |erfc(-z)|
    assert abs(_erfc(z) - ref) <= 1e-13 * max(abs(ref), abs(2.0 - ref))


def _threshold(v: float) -> float:
    """Momentum at which E - v = m: a segment of height v turns propagating."""
    return math.sqrt(2.0 * M * v + v * v)


@st.composite
def profile_and_momentum(draw):
    """Random segments; the momentum is either anywhere in (0.01, 3), with
    tunneling and propagating segments, or within 1e-6 of one segment's
    threshold."""
    segs = draw(segments)
    v = max(s[0] for s in segs)
    if v > 0.0 and draw(st.booleans()):
        k = _threshold(v) * (1.0 + draw(st.floats(-1e-6, 1e-6)))
    else:
        k = draw(st.floats(0.01, 3.0))
    return tuple(segs), k


@_PROPERTY
@given(profile_and_momentum())
def test_transfer_unitarity(case):
    segs, k = case
    T, R = _transfer_TR(segs, np.array([k]), M)
    assert abs(abs(T[0]) ** 2 + abs(R[0]) ** 2 - 1.0) <= 1e-10


@_PROPERTY
@given(profile_and_momentum())
def test_transfer_reciprocity(case):
    segs, k = case
    T, R = _transfer_TR(segs, np.array([k]), M)
    Tr, Rr = _transfer_TR(segs[::-1], np.array([k]), M)
    assert abs(Tr[0] - T[0]) <= 1e-10 * max(abs(T[0]), 1e-300)
    assert abs(abs(Rr[0]) - abs(R[0])) <= 1e-10


def _cancellation_tol(k: float, v0: float) -> float:
    """Relative bound for closed form vs transfer matrix. Both form
    E - m ~ k^2/2m by a subtraction, and barrier_functions forms
    lambda^2 = m^2 - (E - V0)^2 by one, losing about eps m^2/k^2 as k -> 0
    and eps m^2/lambda^2 at the window edge; the bound carries both terms."""
    E = math.hypot(k, M)
    lam_sq = (M - E + v0) * (M + E - v0)
    return 1e-11 + 10.0 * np.finfo(float).eps * (M * M / (k * k) + M * M / lam_sq)


@_PROPERTY
@given(barrier_heights, widths, st.floats(1e-3, 1.0 - 1e-9))
def test_square_closed_form_matches_transfer(v0, d, frac):
    k = frac * _threshold(v0)
    closed = square_barrier_amplitudes(k, v0, d, M)
    T, R = _transfer_TR(((v0, d),), np.array([k]), M)
    assert abs(closed.T - T[0]) <= _cancellation_tol(k, v0) * max(abs(T[0]), 1e-300)
    assert abs(closed.R - R[0]) <= _cancellation_tol(k, v0)


@_PROPERTY
@given(barrier_heights, st.floats(0.1, 5.0), st.floats(1.0, 500.0),
       st.floats(1e-3, 1.0 - 1e-9))
def test_double_closed_form_matches_transfer(v0, a, r, frac):
    k = frac * _threshold(v0)
    closed = double_barrier_T(k, v0, a, r, M)
    T, _ = _transfer_TR(PotentialProfile.double(M, v0, a, r).segments, np.array([k]), M)
    assert abs(closed.T - T[0]) <= _cancellation_tol(k, v0) * max(abs(T[0]), 1e-300)
