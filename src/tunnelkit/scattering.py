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
Each segment's branch is decided once per batch of momenta, and a batch
and any split of it give the same bits.
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


def tunneling_window(v0: float, m: float) -> tuple[float, float]:
    """Momentum range (0, sqrt((m + V0)^2 - m^2)) where E - V0 < m."""
    if v0 <= 0:
        return (0.0, 0.0)
    return (0.0, math.sqrt(2 * m * v0 + v0 * v0))


# ---------------------------------------------------------------------------
# scattering data


@dataclass(frozen=True)
class ScatteringData:
    """T, R and the detection data w, A at one momentum (or along a scan).

    Fields hold scalars or aligned numpy arrays; phase_split(T, R) gives
    |T| and the phases phi, chi where T != 0.
    """

    k: object
    T: object
    R: object
    w: object
    A: object


def detection_coefficient(T, R):
    """Overlap w = Re(T* R) and detection amplitude A = (T - wR)/(1 - w^2)."""
    T = np.asarray(T, dtype=complex)
    R = np.asarray(R, dtype=complex)
    flux_dev = np.abs(np.abs(T) ** 2 + np.abs(R) ** 2 - 1.0).max(initial=0.0)
    if flux_dev > _UNITARITY_TOL:
        raise PhysicsDomainError(f"|T|^2 + |R|^2 deviates from 1 by {flux_dev:.3e}")
    w = np.real(np.conj(T) * R)  # |w| <= |T| |R| <= (|T|^2 + |R|^2)/2 < 1
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
                          *detection_coefficient(T, R))


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


def _propagating(p, kap, w: float):
    """cos p and sin(p)/kap (w at kap = 0) at phase p = kap w; sin keeps tiny p exact."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.cos(p), np.where(kap == 0, w, np.sin(p) / kap)


def _evanescent(p, kap):
    """cosh p and sinh(p)/kap times e^{-p}, finite at any p; expm1 keeps tiny p exact."""
    return 0.5 * (1.0 + np.exp(-2.0 * np.minimum(p, 400.0))), -np.expm1(-2.0 * p) / (2.0 * kap)


def _segment_product(segments, k, E, m: float):
    """(c, Dr, Di, NRr, NRi, logscale) of the scaled segment product M at k and
    E, c = k F(k^2): the transfer denominator D = Dr + i Di = c^2 m12 - m21 +
    ic(m11 + m22) and the reflection numerator NR = NRr + i NRi = m21 + c^2 m12
    + ic(m22 - m11). Each part is real at real (k, E) and analytic in both, so
    a complex step carries the derivatives in the imaginary parts.

    One matching_weight call weights the table of k^2 and the distinct
    segments' ksq = (E - V)^2 - m^2. Each distinct segment is evaluated once,
    on a branch decided for the whole batch: cos and sin on its whole row if
    it propagates (ksq >= 0) at every node, the scaled cosh and sinh if it is
    evanescent at every node, and a gather and scatter of the two kinds only
    if it holds both. Each node meets the same arithmetic on every path, so a
    batch and any split of it agree bit for bit. The product starts from the
    identity, which the first segment's matrix replaces, and the log-scale from 0."""
    distinct = list(dict.fromkeys((v, w) for v, w in segments))  # a double's walls once
    # row by row: a scalar momentum's ** is libm pow, which rounds unlike an array's x*x
    ksq = np.array([k * k] + [(E - v) ** 2 - m * m for v, _ in distinct])
    F = matching_weight(ksq, m)
    c = k * F[0]
    matrices = {}  # (v, w) -> (cos, sin/kap / F, -ksq F sin/kap, log-scale or None)
    for (v, w), q, f in zip(distinct, ksq[1:], F[1:]):
        prop = q.real >= 0
        scale = None
        if prop.all():
            kap = np.sqrt(q)
            cs, snw = _propagating(kap * w, kap, w)
        elif not prop.any():
            kap = np.sqrt(-q)
            scale = kap * w
            cs, snw = _evanescent(scale, kap)
        else:
            ev = ~prop
            kap = np.sqrt(np.where(prop, q, -q))
            phase = kap * w
            cs, snw, scale = np.empty_like(phase), np.empty_like(phase), np.zeros_like(phase)
            cs[prop], snw[prop] = _propagating(phase[prop], kap[prop], w)
            cs[ev], snw[ev] = _evanescent(phase[ev], kap[ev])
            scale[ev] = phase[ev]
        matrices[v, w] = cs, snw / f, -q * f * snw, scale
    m11, m12, m21, m22, logscale = 1.0, 0.0, 0.0, 1.0, 0.0
    for i, (v, w) in enumerate(segments):
        cs, a12, a21, scale = matrices[v, w]
        if i == 0:
            m11, m12, m21, m22 = cs, a12, a21, cs
        else:
            m11, m12, m21, m22 = (cs * m11 + a12 * m21, cs * m12 + a12 * m22,
                                  a21 * m11 + cs * m21, a21 * m12 + cs * m22)
        if scale is not None:
            logscale = logscale + scale
    cc = c * c
    return c, cc * m12 - m21, c * (m11 + m22), m21 + cc * m12, c * (m22 - m11), logscale


def _transfer_TR(segments, k, m: float) -> tuple[np.ndarray, np.ndarray]:
    """T(k), R(k) for any segment list, incidence from the left, at a scalar
    (0-d results) or an array of momenta."""
    k = np.asarray(k, dtype=float)
    c, Dr, Di, NRr, NRi, logscale = _segment_product(segments, k, np.hypot(k, m), m)
    d = float(sum(w for _, w in segments))
    D, NR = Dr + 1j * Di, NRr + 1j * NRi
    phase_out = np.exp(-1j * k * d)
    damp = np.where(logscale > 745.0, 0.0, np.exp(-logscale))
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


def detection_amplitude_scan(profile: PotentialProfile, k_grid) -> np.ndarray:
    """A_k on a grid; the empty profile (free propagation) gives 1 to rounding."""
    return detection_coefficient(*_transfer_TR(profile.segments, k_grid, profile.mass))[1]


def detection_phase_derivative(profile: PotentialProfile, p):
    """theta'_p = d(arg A_k)/dk at k = p (a scalar or an array), exactly.

    A e^{ikd} is a positive real factor times P + iQ, P and Q real arithmetic
    on the segment product; one evaluation at p + i s (energy E + i s v) puts
    s P', s Q' in the imaginary parts, so theta' = (P Q' - Q P')/(P^2 + Q^2) - d.
    The real e^{-lambda w} scale drops out: opaque profiles give finite values.
    Free propagation (the empty profile) gives exactly 0."""
    k = np.asarray(p, dtype=float)
    if np.any(~(k > 0)):
        raise PhysicsDomainError(f"need p > 0, got {p}")
    s, kv = 1e-150, k.reshape(-1)  # 1-d: numpy rounds complex scalars differently
    E = np.hypot(kv, profile.mass)
    c, Dr, Di, NRr, NRi, _ = _segment_product(
        profile.segments, kv + 1j * s, E + 1j * s * kv / E, profile.mass)
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

