"""Scattering amplitudes for piecewise-constant barriers.

Transfer matrices carry the pair (g, F g') with F = 1/(sqrt(m^2 + kappa^2) + m)
the junction weight, so the relativistic matching condition at every
potential step is plain continuity of the carried vector. Closed forms for
the single and double square barrier are provided alongside and
cross-checked by the generic path in the tests. Every function takes a
scalar momentum or an array through the same numpy code, a scalar giving
numpy scalars (see kinematics).

Conventions: the profile occupies [-d/2, d/2] (d = total width), incidence
from the left, T multiplies e^{ikx} on the right, R multiplies e^{-ikx} on
the left. Evanescent segments are composed in scaled form (e^{lambda w}
factored out per segment) so opaque profiles never overflow; the phase
derivative of A_k is exact, by one complex step through the same product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (AboveBarrierError, DelayUndefinedError, PhysicsDomainError,
                     TotalReflectionError)
from .kinematics import matching_weight

_UNITARITY_TOL = 1e-8


# ---------------------------------------------------------------------------
# potential profiles


@dataclass(frozen=True)
class PotentialProfile:
    """Ordered constant-potential segments (height, width), V = 0 outside.

    Heights must satisfy 0 <= V < m (the background-field description breaks
    down at V >= m); widths are strictly positive.
    """

    mass: float
    segments: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if not (math.isfinite(self.mass) and self.mass > 0):
            raise PhysicsDomainError(f"mass must be finite and positive, got {self.mass}",
                                     field="mass")
        for i, (v, w) in enumerate(self.segments):
            if not (math.isfinite(v) and v >= 0):
                raise PhysicsDomainError(f"segment {i}: height must be finite and >= 0, "
                                         f"got {v}", field=f"segments[{i}].v")
            if not (math.isfinite(w) and w > 0):
                raise PhysicsDomainError(f"segment {i}: width must be finite and positive, "
                                         f"got {w}", field=f"segments[{i}].w")
            if v >= self.mass:
                raise PhysicsDomainError(
                    f"segment {i}: height {v} >= mass {self.mass} is outside the "
                    "validity range of the background-field description",
                    field=f"segments[{i}].v")

    @classmethod
    def square(cls, mass: float, v0: float, d: float) -> "PotentialProfile":
        if v0 == 0.0:
            return cls(mass, ())
        return cls(mass, ((v0, d),))

    @classmethod
    def double(cls, mass: float, v0: float, a: float, r: float) -> "PotentialProfile":
        """Two identical barriers of width a separated by r (merged at r = 0)."""
        if r < 0:
            raise PhysicsDomainError(f"inter-barrier distance must be >= 0, got {r}")
        if r == 0.0:
            return cls.square(mass, v0, 2 * a)
        return cls(mass, ((v0, a), (0.0, r), (v0, a)))

    @property
    def width(self) -> float:
        """Total barrier extent d (the support of the potential region)."""
        return float(sum(w for _, w in self.segments))

    def is_parity_symmetric(self) -> bool:
        segs = self.segments
        rev = segs[::-1]
        return all(math.isclose(a[0], b[0], rel_tol=1e-12, abs_tol=1e-300)
                   and math.isclose(a[1], b[1], rel_tol=1e-12)
                   for a, b in zip(segs, rev))

    def as_symmetric_double(self) -> tuple[float, float, float] | None:
        """(V0, a, r) if the profile is two identical barriers around a gap."""
        s = self.segments
        if (len(s) == 3 and s[1][0] == 0.0 and s[0][0] > 0.0
                and s[0] == s[2]):
            return (s[0][0], s[0][1], s[1][1])
        return None

    def to_dict(self) -> dict:
        return {"mass": self.mass,
                "segments": [{"v": v, "w": w} for v, w in self.segments]}

    @classmethod
    def from_dict(cls, data: dict) -> "PotentialProfile":
        segs = tuple((float(s["v"]), float(s["w"])) for s in data["segments"])
        return cls(float(data["mass"]), segs)


def tunneling_window(v0: float, m: float) -> tuple[float, float]:
    """Momentum range (0, sqrt((m + V0)^2 - m^2)) where E - V0 < m."""
    if v0 <= 0:
        return (0.0, 0.0)
    return (0.0, math.sqrt(2 * m * v0 + v0 * v0))


# ---------------------------------------------------------------------------
# scattering data


@dataclass(frozen=True)
class ScatteringData:
    """Amplitudes and derived quantities at one momentum (or along a scan).

    Fields hold scalars or aligned numpy arrays. ``phi`` is unwrapped along
    array scans; ``chi`` is reported in (-pi, pi] and is 0 by convention when
    R vanishes.
    """

    k: object
    T: object
    R: object
    w: object
    A: object
    T_abs: object
    phi: object
    chi: object


def detection_coefficient(T, R):
    """Overlap w = Re(T* R) and detection amplitude A = (T - wR)/(1 - w^2)."""
    T = np.asarray(T, dtype=complex)
    R = np.asarray(R, dtype=complex)
    flux_dev = np.max(np.abs(np.abs(T) ** 2 + np.abs(R) ** 2 - 1.0), initial=0.0)
    if flux_dev > _UNITARITY_TOL:
        raise PhysicsDomainError(f"|T|^2 + |R|^2 deviates from 1 by {flux_dev:.3e}")
    w = np.real(np.conj(T) * R)
    if np.max(np.abs(w), initial=0.0) >= 1.0:
        raise PhysicsDomainError("inconsistent amplitudes: |w| >= 1")
    return w[()], ((T - w * R) / (1.0 - w * w))[()]


def wrap_pi(x):
    """x mapped to [-pi, pi)."""
    return (x + np.pi) % (2 * np.pi) - np.pi


def phase_split(T, R):
    """Parametrization T = |T| e^{i phi}, R = -i |R| e^{i phi + i chi}.

    Along array scans phi is made continuous by nearest-branch unwrapping.
    chi defaults to 0 when there is no reflected wave; T = 0 has no phase.
    """
    T = np.asarray(T, dtype=complex)
    R = np.asarray(R, dtype=complex)
    if np.any(T == 0):
        raise TotalReflectionError("T = 0: transmission phase undefined")
    phi = np.angle(T)
    if phi.size > 1:
        phi = np.unwrap(phi)
    chi = np.where(R == 0, 0.0, wrap_pi(np.pi / 2 + np.angle(R) - np.angle(T)))
    return np.abs(T)[()], phi[()], chi[()]


def _make_data(k, T, R) -> ScatteringData:
    T, R = np.asarray(T, dtype=complex), np.asarray(R, dtype=complex)
    return ScatteringData(np.asarray(k, dtype=float)[()], T[()], R[()],
                          *detection_coefficient(T, R), *phase_split(T, R))


# ---------------------------------------------------------------------------
# closed forms (tunneling regime of the square and double square barrier)


@dataclass(frozen=True)
class BarrierFunctions:
    """Single-square-barrier auxiliaries at momentum k, scalars or arrays
    aligned with k: E = sqrt(k^2 + m^2), lambda = sqrt(m^2 - (E - V0)^2), and
    e, eta, rho with rho^2 - eta^2 = 1 identically."""

    energy: object
    lam: object
    e: object
    eta: object
    rho: object


def barrier_functions(k, v0: float, m: float) -> BarrierFunctions:
    """e_k = (lambda/k) (E - m)/(m - sqrt(m^2 - lambda^2)) and eta, rho.

    k is a scalar or an array of momenta in the tunneling window
    0 < k < sqrt(2 m V0 + V0^2). In an array, e = 0 where E - m underflows
    (k below ~1e-8 m), so eta = -inf and rho = inf there; a scalar k that
    low raises PhysicsDomainError.
    """
    k = np.asarray(k, dtype=float)
    lo, hi = tunneling_window(v0, m)
    bad = k[~((k > lo) & (k < hi))]
    if bad.size:
        raise AboveBarrierError(
            f"k in [{bad.min()}, {bad.max()}] outside the tunneling window (0, {hi}): "
            "use the transfer-matrix path for above-barrier momenta")
    E = np.hypot(k, m)
    gap = E - v0
    lam = np.sqrt(m * m - gap * gap)
    with np.errstate(divide="ignore"):
        e = (lam / k) * (E - m) / (m - np.sqrt(m * m - lam * lam))
        if e.ndim == 0 and e == 0.0:
            raise PhysicsDomainError(
                f"k = {k}: E - m underflows to 0, so e_k = 0 and eta, rho are infinite")
        inv = 1.0 / e
    return BarrierFunctions(*(q[()] for q in (E, lam, e, 0.5 * (e - inv), 0.5 * (e + inv))))


def _scaled_cosh_sinh(x):
    """(cosh x, sinh x) times e^{-x}: finite however opaque the barrier."""
    em = np.exp(-2.0 * x)
    return 0.5 * (1.0 + em), 0.5 * (1.0 - em)


def square_barrier_amplitudes(k, v0: float, d: float, m: float) -> ScatteringData:
    """Closed-form T, R for one square barrier of height V0 < m, width d, at
    a scalar or an array of momenta k.

    V0 = 0 degenerates to free propagation (T = 1, R = 0). Momenta above the
    tunneling window raise AboveBarrierError; use piecewise_amplitudes there.
    """
    if d <= 0:
        raise PhysicsDomainError(f"width must be positive, got {d}")
    if v0 == 0.0:
        return _make_data(k, 1.0, 0.0)
    bf = barrier_functions(k, v0, m)
    x = bf.lam * d
    ch, sh = _scaled_cosh_sinh(x)
    den = ch - 1j * bf.eta * sh
    phase = np.cos(k * d) - 1j * np.sin(k * d)
    return _make_data(k, phase * (np.exp(-x) * (x < 700)) / den, -1j * phase * bf.rho * sh / den)


def double_barrier_T(k, v0: float, a: float, r: float, m: float) -> ScatteringData:
    """Closed-form amplitudes for two width-a barriers separated by r, at a
    scalar or an array of momenta k.

    T comes from the double-barrier closed form (scaled against overflow);
    R from the transfer-matrix path, which the tests hold to unitarity
    against this T. r = 0 reduces to a single barrier of width 2a.
    """
    if a <= 0 or r < 0:
        raise PhysicsDomainError(f"need a > 0 and r >= 0, got a={a}, r={r}")
    if v0 == 0.0 or r == 0.0:
        return square_barrier_amplitudes(k, v0, 2 * a, m)
    bf = barrier_functions(k, v0, m)
    x = bf.lam * a
    ch, sh = _scaled_cosh_sinh(x)
    eikr = np.cos(k * r) + 1j * np.sin(k * r)
    # (ch - i eta sh)^2 in real arithmetic: numpy's complex multiply rounds
    # differently on scalars and arrays, and den cancels near resonances
    esh = bf.eta * sh
    den = ((ch - esh) * (ch + esh) - 2j * ch * esh) / eikr + bf.rho ** 2 * sh * sh * eikr
    scale = np.exp(-2.0 * x) * (x < 700)
    kd = k * (r + 2 * a)
    T = (np.cos(kd) - 1j * np.sin(kd)) * scale / den
    _, R = _transfer_TR(PotentialProfile.double(m, v0, a, r).segments, k, m)
    return _make_data(k, T, R)


# ---------------------------------------------------------------------------
# generic transfer-matrix path


def _segment_product(segments, k, E, m: float):
    """(c, m11, m12, m21, m22, logscale) of the scaled segment product at k and
    E, c = k F(k^2). Real at real (k, E) and analytic in both, so a complex
    step carries the derivatives in the imaginary parts."""
    c = k * matching_weight(k * k, m)
    m11 = np.ones_like(k)
    m12 = np.zeros_like(k)
    m21 = np.zeros_like(k)
    m22 = np.ones_like(k)
    logscale = np.zeros_like(k)
    for v, w in segments:
        ksq = (E - v) ** 2 - m * m
        F = matching_weight(ksq, m)
        prop = ksq.real >= 0
        kap = np.sqrt(np.where(prop, ksq, -ksq))
        phase = kap * w
        em = np.exp(-2.0 * np.minimum(phase, 400.0))
        cs = np.where(prop, np.cos(phase), 0.5 * (1.0 + em))
        # sin(w kap)/kap, or sinh(w kap)/kap scaled by e^{-w kap}: sin and expm1
        # hold full relative accuracy at tiny phases; 0/0 only at kap = 0 (prop)
        with np.errstate(divide="ignore", invalid="ignore"):
            snw = np.where(prop, np.where(kap == 0, w, np.sin(phase) / kap),
                           -np.expm1(-2.0 * phase) / (2.0 * kap))
        a12 = snw / F
        a21 = -ksq * F * snw
        n11 = cs * m11 + a12 * m21
        n12 = cs * m12 + a12 * m22
        n21 = a21 * m11 + cs * m21
        n22 = a21 * m12 + cs * m22
        m11, m12, m21, m22 = n11, n12, n21, n22
        logscale = logscale + np.where(prop, 0.0, phase)
    return c, m11, m12, m21, m22, logscale


def _transfer_TR(segments, k, m: float) -> tuple[np.ndarray, np.ndarray]:
    """T(k), R(k) for any segment list, incidence from the left, at a scalar
    (0-d results) or an array of momenta."""
    k = np.asarray(k, dtype=float)
    c, m11, m12, m21, m22, logscale = _segment_product(segments, k, np.hypot(k, m), m)
    d = float(sum(w for _, w in segments))
    D = c * c * m12 - m21 + 1j * c * (m11 + m22)
    NR = m21 + c * c * m12 + 1j * c * (m22 - m11)
    phase_out = np.exp(-1j * k * d)
    damp = np.exp(-np.minimum(logscale, 745.0))
    damp = np.where(logscale > 745.0, 0.0, damp)
    T = 2j * c * phase_out * damp / D
    R = phase_out * NR / D
    return T, R


def piecewise_amplitudes(profile: PotentialProfile, k) -> ScatteringData:
    """T, R, w, A for an arbitrary piecewise-constant profile at a momentum
    k > 0 or along an array of them.

    Works at any k > 0 (tunneling or above-barrier); the empty profile gives
    free propagation (R = 0, T = 1 to rounding). Opaque profiles are composed
    in scaled form, so the result stays finite however large lambda*width gets
    (T underflows to 0 once |T| < ~1e-300).
    """
    k = np.asarray(k, dtype=float)
    bad = k[~((k > 0) & np.isfinite(k))]
    if bad.size:
        raise PhysicsDomainError(f"need finite k > 0, got {bad.size} momenta such as {bad[0]}")
    T, R = _transfer_TR(profile.segments, k, profile.mass)
    return _make_data(k, T, R)


def detection_amplitude_scan(profile: PotentialProfile | None, k_grid) -> np.ndarray:
    """A_k on a grid; profile None means free propagation."""
    k = np.asarray(k_grid, dtype=float)
    if profile is None:
        return np.ones_like(k, dtype=complex)
    return detection_coefficient(*_transfer_TR(profile.segments, k, profile.mass))[1]


def detection_phase_derivative(profile: PotentialProfile | None, p):
    """theta'_p = d(arg A_k)/dk at k = p (a scalar or an array), exactly.

    A e^{ikd} is a positive real factor times P + iQ, P and Q real arithmetic
    on the segment product; one evaluation at p + i s (energy E + i s v) puts
    s P', s Q' in the imaginary parts, so theta' = (P Q' - Q P')/(P^2 + Q^2) - d.
    The real e^{-lambda w} scale drops out: opaque profiles give finite values.
    Free propagation (profile None) gives exactly 0."""
    k = np.asarray(p, dtype=float)
    if np.any(~(k > 0)):
        raise PhysicsDomainError(f"need p > 0, got {p}")
    if profile is None:
        return np.zeros_like(k)[()]
    s, kv = 1e-150, k.reshape(-1)  # 1-d: numpy rounds complex scalars differently
    E = np.hypot(kv, profile.mass)
    c, m11, m12, m21, m22, _ = _segment_product(
        profile.segments, kv + 1j * s, E + 1j * s * kv / E, profile.mass)
    Dr, Di = c * c * m12 - m21, c * (m11 + m22)
    NRr, NRi = m21 + c * c * m12, c * (m22 - m11)
    D2 = Dr * Dr + Di * Di
    X, Y = 2.0 * c * Di / D2, 2.0 * c * Dr / D2  # T e^{ikd} without its scale
    U, W = (NRr * Dr + NRi * Di) / D2, (NRi * Dr - NRr * Di) / D2  # R e^{ikd}
    wt = X * U + Y * W
    P, Q = X - wt * U, Y - wt * W
    norm = P.real ** 2 + Q.real ** 2
    if np.any(norm == 0):
        raise DelayUndefinedError("delay undefined at zero of A")
    theta = (P.real * Q.imag - Q.real * P.imag) / (s * norm) - profile.width
    return theta.reshape(k.shape)[()]


def unwrapped_transmission_phase(profile: PotentialProfile, k_grid) -> np.ndarray:
    """Continuous arg T_k along an increasing momentum grid.

    Nearest-branch continuation; whenever two neighbours still differ by more
    than pi/2 the step is halved (recursively, at most 40 times) to pin the
    branch down.
    """
    k = np.asarray(k_grid, dtype=float)
    if k.ndim != 1 or k.size < 2 or np.any(np.diff(k) <= 0):
        raise PhysicsDomainError("need a strictly increasing 1-d momentum grid")

    def principal(kk: float) -> float:
        return float(np.angle(_transfer_TR(profile.segments, kk, profile.mass)[0]))

    def continue_branch(k0, phi0, k1, phi1_pr, depth):
        cand = phi1_pr + 2 * np.pi * round((phi0 - phi1_pr) / (2 * np.pi))
        if abs(cand - phi0) <= np.pi / 2 or depth >= 40:
            return cand
        km = 0.5 * (k0 + k1)
        phim = continue_branch(k0, phi0, km, principal(km), depth + 1)
        return continue_branch(km, phim, k1, phi1_pr, depth + 1)

    pr = np.angle(_transfer_TR(profile.segments, k, profile.mass)[0])
    out = np.empty_like(pr)
    out[0] = pr[0]
    for i in range(1, k.size):
        out[i] = continue_branch(k[i - 1], out[i - 1], k[i], pr[i], 0)
    return out
