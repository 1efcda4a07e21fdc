"""Scattering amplitudes for piecewise-constant barriers.

Transfer matrices carry the pair (g, F g') with F the junction weight, so the
relativistic matching condition at every potential step is plain continuity
of the carried vector. Closed forms for the single and double square barrier
are provided alongside and cross-checked by the generic path in the tests.

Conventions: the profile occupies [-d/2, d/2] (d = total width), incidence
from the left, T multiplies e^{ikx} on the right, R multiplies e^{-ikx} on
the left. Evanescent segments are composed in scaled form (e^{lambda w}
factored out per segment) so opaque profiles never overflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AboveBarrierError, PhysicsDomainError, TotalReflectionError
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
            raise PhysicsDomainError(f"mass must be finite and positive, got {self.mass}")
        for i, (v, w) in enumerate(self.segments):
            if not (math.isfinite(v) and math.isfinite(w)):
                raise PhysicsDomainError(f"segment {i} has non-finite entries")
            if w <= 0:
                raise PhysicsDomainError(f"segment {i}: width must be positive, got {w}")
            if v < 0:
                raise PhysicsDomainError(f"segment {i}: height must be >= 0, got {v}")
            if v >= self.mass:
                raise PhysicsDomainError(
                    f"segment {i}: height {v} >= mass {self.mass} is outside the "
                    "validity range of the background-field description")

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

    def is_parity_symmetric(self, rtol: float = 1e-12) -> bool:
        segs = self.segments
        rev = segs[::-1]
        return all(math.isclose(a[0], b[0], rel_tol=rtol, abs_tol=1e-300)
                   and math.isclose(a[1], b[1], rel_tol=rtol)
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
    flux = np.abs(T) ** 2 + np.abs(R) ** 2
    if np.max(np.abs(flux - 1.0)) > _UNITARITY_TOL:
        raise PhysicsDomainError(
            f"|T|^2 + |R|^2 deviates from 1 by {np.max(np.abs(flux - 1.0)):.3e}")
    w = np.real(np.conj(T) * R)
    if np.max(np.abs(w)) >= 1.0:
        raise PhysicsDomainError("inconsistent amplitudes: |w| >= 1")
    A = (T - w * R) / (1.0 - w * w)
    if np.ndim(T) == 0 and np.ndim(R) == 0:
        return float(w), complex(A)
    return w, A


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
    absT = np.abs(T)
    phi = np.angle(T)
    if phi.ndim > 0 and phi.size > 1:
        phi = np.unwrap(phi)
    chi = np.where(R == 0, 0.0, wrap_pi(np.pi / 2 + np.angle(R) - np.angle(T)))
    if np.ndim(T) == 0 and np.ndim(R) == 0:
        return float(absT), float(phi), float(chi)
    return absT, phi, chi


def _make_data(k, T, R) -> ScatteringData:
    w, A = detection_coefficient(T, R)
    absT, phi, chi = phase_split(T, R)
    return ScatteringData(k=k, T=T, R=R, w=w, A=A, T_abs=absT, phi=phi, chi=chi)


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


def _xp(k):
    """math for a scalar k, numpy for an array: scalar results stay those of
    libm, from which numpy's vectorized exp, tanh and hypot differ in the last bit."""
    return np if np.ndim(k) else math


def barrier_functions(k, v0: float, m: float) -> BarrierFunctions:
    """e_k = (lambda/k) (E - m)/(m - sqrt(m^2 - lambda^2)) and eta, rho.

    k is a scalar or an array of momenta in the tunneling window
    0 < k < sqrt(2 m V0 + V0^2). In an array, e = 0 where E - m underflows
    (k below ~1e-8 m), so eta = -inf and rho = inf there.
    """
    karr = np.asarray(k, dtype=float)
    lo, hi = tunneling_window(v0, m)
    bad = karr[~((karr > lo) & (karr < hi))]
    if bad.size:
        raise AboveBarrierError(
            f"k in [{bad.min()}, {bad.max()}] outside the tunneling window (0, {hi}): "
            "use the transfer-matrix path for above-barrier momenta")
    xp = _xp(k)
    if xp is np:
        k = karr
    E = xp.hypot(k, m)
    gap = E - v0
    lam = xp.sqrt(m * m - gap * gap)
    with np.errstate(divide="ignore"):
        e = (lam / k) * (E - m) / (m - xp.sqrt(m * m - lam * lam))
        inv = 1.0 / e
    return BarrierFunctions(energy=E, lam=lam, e=e, eta=0.5 * (e - inv), rho=0.5 * (e + inv))


def _scaled_cosh_sinh(x):
    """(cosh x, sinh x) times e^{-x}: finite however opaque the barrier."""
    em = _xp(x).exp(-2.0 * x)
    return 0.5 * (1.0 + em), 0.5 * (1.0 - em)


def _square_TR(k, v0: float, d: float, m: float):
    xp = _xp(k)
    bf = barrier_functions(k, v0, m)
    x = bf.lam * d
    ch, sh = _scaled_cosh_sinh(x)
    den = ch - 1j * bf.eta * sh
    scale = xp.exp(-x) * (x < 700)
    phase = xp.cos(k * d) - 1j * xp.sin(k * d)
    T = phase * scale / den
    R = -1j * phase * bf.rho * sh / den
    return T, R


def square_barrier_amplitudes(k: float, v0: float, d: float, m: float) -> ScatteringData:
    """Closed-form T, R for one square barrier of height V0 < m, width d.

    V0 = 0 degenerates to free propagation (T = 1, R = 0). Momenta above the
    tunneling window raise AboveBarrierError; use piecewise_amplitudes there.
    """
    if d <= 0:
        raise PhysicsDomainError(f"width must be positive, got {d}")
    if v0 == 0.0:
        return _make_data(k, complex(1.0), complex(0.0))
    T, R = _square_TR(k, v0, d, m)
    return _make_data(k, T, R)


def double_barrier_T(k: float, v0: float, a: float, r: float, m: float) -> ScatteringData:
    """Closed-form amplitudes for two width-a barriers separated by r.

    T comes from the double-barrier closed form (scaled against overflow);
    R from the transfer-matrix path, which the tests hold to unitarity
    against this T. r = 0 reduces to a single barrier of width 2a.
    """
    if a <= 0 or r < 0:
        raise PhysicsDomainError(f"need a > 0 and r >= 0, got a={a}, r={r}")
    if v0 == 0.0:
        return _make_data(k, complex(1.0), complex(0.0))
    if r == 0.0:
        return square_barrier_amplitudes(k, v0, 2 * a, m)
    bf = barrier_functions(k, v0, m)
    x = bf.lam * a
    ch, sh = _scaled_cosh_sinh(x)
    eikr = complex(math.cos(k * r), math.sin(k * r))
    den = (ch - 1j * bf.eta * sh) ** 2 / eikr + bf.rho ** 2 * sh * sh * eikr
    scale = math.exp(-2.0 * x) if x < 700 else 0.0
    kd = k * (r + 2 * a)
    T = complex(math.cos(kd), -math.sin(kd)) * scale / den
    profile = PotentialProfile.double(m, v0, a, r)
    _, R = _transfer_TR(profile.segments, np.array([float(k)]), m)
    return _make_data(k, T, complex(R[0]))


# ---------------------------------------------------------------------------
# generic transfer-matrix path


def _transfer_TR(segments, k: np.ndarray, m: float) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized T(k), R(k) for any segment list, incidence from the left."""
    k = np.asarray(k, dtype=float)
    E = np.hypot(k, m)
    c = k * matching_weight(k * k, m)
    m11 = np.ones_like(k)
    m12 = np.zeros_like(k)
    m21 = np.zeros_like(k)
    m22 = np.ones_like(k)
    logscale = np.zeros_like(k)
    for v, w in segments:
        ksq = (E - v) ** 2 - m * m
        F = matching_weight(ksq, m)
        kap = np.sqrt(np.abs(ksq))
        phase = kap * w
        prop = ksq >= 0
        tinyp = phase < 1e-8
        with np.errstate(divide="ignore", invalid="ignore"):
            snw_p = np.where(tinyp, w * (1.0 - phase * phase / 6.0),
                             np.sin(phase) / np.where(kap == 0, 1.0, kap))
            em = np.exp(-2.0 * np.minimum(phase, 400.0))
            snw_e = np.where(tinyp, w * (1.0 - phase),
                             -np.expm1(-2.0 * phase) / np.where(kap == 0, 1.0, 2.0 * kap))
        cs = np.where(prop, np.cos(phase), 0.5 * (1.0 + em))
        snw = np.where(prop, snw_p, snw_e)
        a12 = snw / F
        a21 = -ksq * F * snw
        n11 = cs * m11 + a12 * m21
        n12 = cs * m12 + a12 * m22
        n21 = a21 * m11 + cs * m21
        n22 = a21 * m12 + cs * m22
        m11, m12, m21, m22 = n11, n12, n21, n22
        logscale = logscale + np.where(prop, 0.0, phase)
    d = float(sum(w for _, w in segments))
    D = c * c * m12 - m21 + 1j * c * (m11 + m22)
    NR = m21 + c * c * m12 + 1j * c * (m22 - m11)
    phase_out = np.exp(-1j * k * d)
    damp = np.exp(-np.minimum(logscale, 745.0))
    damp = np.where(logscale > 745.0, 0.0, damp)
    T = 2j * c * phase_out * damp / D
    R = phase_out * NR / D
    return T, R


def piecewise_amplitudes(profile: PotentialProfile, k: float) -> ScatteringData:
    """T, R, w, A for an arbitrary piecewise-constant profile at momentum k.

    Works at any k > 0 (tunneling or above-barrier); the empty profile gives
    free propagation. Opaque profiles are composed in scaled form, so the
    result stays finite however large lambda*width gets (T underflows to 0
    once |T| < ~1e-300).
    """
    if not (np.ndim(k) == 0 and k > 0 and math.isfinite(float(k))):
        raise PhysicsDomainError(f"need a finite scalar momentum k > 0, got {k}")
    if not profile.segments:
        return _make_data(k, complex(1.0), complex(0.0))
    T, R = _transfer_TR(profile.segments, np.array([float(k)]), profile.mass)
    return _make_data(float(k), complex(T[0]), complex(R[0]))


def amplitude_scan(profile: PotentialProfile, k_grid) -> ScatteringData:
    """Vectorized piecewise_amplitudes over a momentum grid (k > 0)."""
    k = np.asarray(k_grid, dtype=float)
    if np.any(k <= 0) or not np.all(np.isfinite(k)):
        raise PhysicsDomainError("momentum scan requires finite k > 0")
    if not profile.segments:
        ones = np.ones_like(k, dtype=complex)
        return _make_data(k, ones, np.zeros_like(k, dtype=complex))
    T, R = _transfer_TR(profile.segments, k, profile.mass)
    return _make_data(k, T, R)


def detection_amplitude_scan(profile: PotentialProfile | None, k_grid) -> np.ndarray:
    """A_k on a grid; profile None (or empty) means free propagation."""
    k = np.asarray(k_grid, dtype=float)
    if profile is None or not profile.segments:
        return np.ones_like(k, dtype=complex)
    T, R = _transfer_TR(profile.segments, k, profile.mass)
    w = np.real(np.conj(T) * R)
    return (T - w * R) / (1.0 - w * w)


def detection_phase_derivative(profile: PotentialProfile | None, p: float,
                               h: float | None = None) -> float:
    """d(Im log A_k)/dk at k = p by Richardson-extrapolated central differences.

    Step defaults to 1e-5 p (truncation/roundoff balance in doubles). The
    stencil phases are branch-matched; a residual jump above pi/2 means the
    stencil straddles a zero of A and the derivative is reported undefined.
    """
    from .errors import DelayUndefinedError

    if profile is None or not profile.segments:
        return 0.0
    if p <= 0:
        raise PhysicsDomainError(f"need p > 0, got {p}")
    if h is None:
        h = 1e-5 * p
    ks = p + h * np.array([-1.0, -0.5, 0.5, 1.0])
    A = detection_amplitude_scan(profile, ks)
    if np.any(np.abs(A) < 1e-300):
        raise DelayUndefinedError("delay undefined at zero of A")
    th = np.angle(A)
    for i in range(1, 4):
        th[i] += 2 * np.pi * round((th[i - 1] - th[i]) / (2 * np.pi))
        if abs(th[i] - th[i - 1]) > np.pi / 2:
            raise DelayUndefinedError("delay undefined at zero of A")
    d_h = (th[3] - th[0]) / (2 * h)
    d_h2 = (th[2] - th[1]) / h
    return float((4.0 * d_h2 - d_h) / 3.0)


def unwrapped_transmission_phase(profile: PotentialProfile, k_grid,
                                 max_depth: int = 40) -> np.ndarray:
    """Continuous arg T_k along an increasing momentum grid.

    Nearest-branch continuation; whenever two neighbours still differ by more
    than pi/2 the step is halved (recursively) to pin the branch down.
    """
    k = np.asarray(k_grid, dtype=float)
    if k.ndim != 1 or k.size < 2 or np.any(np.diff(k) <= 0):
        raise PhysicsDomainError("need a strictly increasing 1-d momentum grid")

    def principal(kk: float) -> float:
        T, _ = _transfer_TR(profile.segments, np.array([kk]), profile.mass)
        return float(np.angle(T[0]))

    def continue_branch(k0, phi0, k1, phi1_pr, depth):
        cand = phi1_pr + 2 * np.pi * round((phi0 - phi1_pr) / (2 * np.pi))
        if abs(cand - phi0) <= np.pi / 2 or depth >= max_depth:
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
