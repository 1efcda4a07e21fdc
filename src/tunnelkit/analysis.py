"""Temporal observables and double-barrier regime approximations.

Everything here reduces arrival physics to a handful of parameters: the
delay time t_d (stationary-phase shift of the arrival peak), the tunneling
time tau_p = t_d + d/v_p, the double-barrier peak spacing dt = 2(r/v_p +
tau_p), the escape rate Gamma_p = |T0p|^2/(r/v_p + tau_p), and the resonance
momenta where the double barrier turns transparent. Regime densities
(peak series, continuum, resonant, multi-resonant) give closed-form P(L, t)
approximations that the tests hold against direct quadrature.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import PhysicsDomainError, warn_regime
from .kinematics import faddeeva_w, relativistic_kinematics
from .scattering import (
    PotentialProfile,
    barrier_functions,
    detection_phase_derivative,
    piecewise_amplitudes,
    square_barrier_amplitudes,
    tunneling_window,
    wrap_pi,
    _transfer_TR,
)
from .wavepacket import (ArrivalDistribution, WavePacketSpec, _first_peak_phase_derivative,
                         _uniform_step)

# the packet shape each closed form assumes; the peak series takes either
REGIME_SHAPES = {"continuum": "gaussian", "resonance": "lorentzian"}
_PEAK_FLOOR = 1e-6        # detect_peaks: ignore maxima below this x global max
_FIT_FLOOR = 1e-12        # fit_exponential: ignore samples below this x peak
FIT_MIN_SAMPLES = 10      # fit_exponential: samples the raw-sample fit needs
_TAIL_BOUND = 1e-8        # peak series truncation: |R0p|^(2 n_max) < this
_SERIES_CHUNK = 1 << 18   # peak series: times x offsets entries held at once


# ---------------------------------------------------------------------------
# delay and tunneling times


def delay_time(p, profile: PotentialProfile):
    """Arrival delay theta'_p/v_p relative to free propagation at mean
    momentum p, a scalar or a numpy array.

    For a symmetric double barrier the physically meaningful delay is that of
    the first detected peak: twice the single-barrier delay. The composite
    amplitude's delay, which oscillates through the resonances and underlies
    "generalized Hartmann" claims, is detection_phase_derivative(profile, p)/v_p.
    Free propagation, the empty profile PotentialProfile(m, ()), gives 0.
    """
    return (_first_peak_phase_derivative(profile, p)
            / relativistic_kinematics(p, profile.mass).velocity)


def tunneling_time(p, profile: PotentialProfile):
    """tau_p = t_d + d/v_p with d the total barrier extent (0 for a free run),
    at a scalar or a numpy array of momenta p."""
    return (delay_time(p, profile)
            + profile.width / relativistic_kinematics(p, profile.mass).velocity)


def square_barrier_tunneling_time(p, v0: float, d: float, m: float):
    """Closed-form tau_p for one square barrier (tunneling window only).

    tau_p = [-eta (E-V0)/lambda d sech^2 + m rho (1/p^2 + 1/lambda^2) tanh]
            / (1 + eta^2 tanh^2), all at lambda d; written via tanh so opaque
    barriers never overflow. Matches the phase-derivative route to ~1e-13.
    p is a scalar or a numpy array of momenta.
    """
    bf = barrier_functions(p, v0, m)
    th = np.tanh(bf.lam * d)
    sech2 = 1.0 - th * th
    num = (-bf.eta * (bf.energy - v0) / bf.lam * d * sech2
           + m * bf.rho * (1.0 / (p * p) + 1.0 / (bf.lam * bf.lam)) * th)
    return num / (1.0 + bf.eta ** 2 * th * th)


def opaque_tunneling_time(p, v0: float, m: float):
    """Opaque-limit tau (independent of d) at a scalar or numpy-array p:
    m rho (1/p^2 + 1/lambda^2)/(1 + eta^2)."""
    bf = barrier_functions(p, v0, m)
    return m * bf.rho * (1.0 / (p * p) + 1.0 / (bf.lam * bf.lam)) / (1.0 + bf.eta ** 2)


# ---------------------------------------------------------------------------
# double-barrier parameters


def _single_barrier_phase(k, v0: float, a: float, m: float):
    """Continuous arg T for one square barrier: -ka + arctan(eta tanh(lambda a))."""
    bf = barrier_functions(k, v0, m)
    return -np.asarray(k, dtype=float) * a + np.arctan(bf.eta * np.tanh(bf.lam * a))


def lorentzian_detection_amplitude(k, k0: float, gamma_k0: float, v0: float, a: float,
                                   m: float):
    """Single-resonance model e^{2i phi_k}/(1 - i a_L (k - k0)) of the double
    barrier's A_k near a resonance k0, phi_k the single-barrier phase and
    a_L = 2 v_k0/Gamma_k0, Gamma_k0 = decay_rate at k0; k scalar or array."""
    a_lor = 2 * relativistic_kinematics(k0, m).velocity / gamma_k0
    return np.exp(2j * _single_barrier_phase(k, v0, a, m)) / (1 - 1j * a_lor * (k - k0))


def find_resonances(v0: float, a: float, r: float, m: float,
                    k_window: tuple[float, float] | None = None) -> np.ndarray:
    """Momenta where the double barrier is transparent (|T| = 1).

    Solves cos(2 k (r+a) + 2 phi_k) = -1 with phi_k the single-barrier
    transmission phase: the total phase psi(k) = 2kr + 2 arctan(eta tanh
    (lambda a)) rises monotonically, so every odd multiple of pi inside the
    window brackets exactly one root; bisection refines each to 1e-10.
    """
    hi_max = tunneling_window(v0, m)[1]
    if hi_max == 0.0:
        return np.array([])
    if k_window is None:
        k_window = (1e-9 * hi_max, hi_max * (1.0 - 1e-12))
    lo, hi = k_window
    if not (0.0 < lo < hi < hi_max):
        raise PhysicsDomainError(
            f"k_window {k_window} must lie inside the tunneling window (0, {hi_max})")

    def psi(k):
        return 2.0 * k * r + 2.0 * (_single_barrier_phase(k, v0, a, m) + k * a)

    step = math.pi / (8.0 * (r + a))
    n_pts = int(math.ceil((hi - lo) / step)) + 2
    grid = np.linspace(lo, hi, max(n_pts, 4))
    vals = psi(grid)
    targets_lo = int(math.floor((vals[0] - math.pi) / (2 * math.pi))) + 1
    targets_hi = int(math.floor((vals[-1] - math.pi) / (2 * math.pi)))
    targets = (2.0 * np.arange(targets_lo, targets_hi + 1) + 1.0) * math.pi

    # vals[0] < targets <= vals[-1] but for rounding when a window end lies on a root
    idx = np.clip(np.searchsorted(vals, targets), 1, grid.size - 1)
    klo, khi = grid[idx - 1], grid[idx]
    for _ in range(64):
        if np.max(khi - klo, initial=0.0) < 1e-10:
            break
        mid = 0.5 * (klo + khi)
        below = psi(mid) < targets
        klo = np.where(below, mid, klo)
        khi = np.where(below, khi, mid)
    roots = 0.5 * (klo + khi)

    profile = PotentialProfile.double(m, v0, a, r)
    T, _ = _transfer_TR(profile.segments, roots, m)
    good = np.abs(T) > 1.0 - 1e-6
    if not np.all(good):
        warn_regime("resonance_verification",
                    f"{int(np.sum(~good))} resonance candidates failed |T|=1 "
                    "verification and were dropped",
                    dropped=roots[~good].tolist())
    return roots[good]


def decay_rate(p: float, v0: float, a: float, r: float, m: float) -> float:
    """Escape rate Gamma_p = |T0p|^2 / (r/v_p + tau_p) of the inter-barrier trap."""
    t0_abs2 = np.abs(square_barrier_amplitudes(p, v0, a, m).T) ** 2
    if t0_abs2 > 0.1:
        warn_regime("opacity",
                    f"|T0p|^2 = {t0_abs2:.3f} > 0.1: the geometric-series "
                    "derivation of the decay rate is marginal",
                    T0_sq=t0_abs2)
    tau = square_barrier_tunneling_time(p, v0, a, m)
    v = relativistic_kinematics(p, m).velocity
    return t0_abs2 / (r / v + tau)


@dataclass
class RegimeReport:
    """Derived temporal observables of one double-barrier configuration.

    All quantities in mass units (times in 1/m, rates in m, momenta in m).
    Fields that need detector geometry (t0) or a packet (mu_p) are None
    until supplied.
    """

    p: float
    v0: float
    a: float
    r: float
    mass: float
    t_d: float
    tau_p: float
    dt: float
    gamma_p: float
    beta_p: float
    T0p_abs2: float
    R0p_abs2: float
    transmission_p: float
    phi_p: float
    phi_prime_p: float
    t0: float | None = None
    mu_p: float | None = None
    sigma_p: float | None = None

    def to_dict(self) -> dict:
        return {"units": {"times": "1/m", "rates": "m", "momenta": "m"}, **asdict(self)}


def double_barrier_report(p: float, v0: float, a: float, r: float, m: float,
                          L: float | None = None, x0: float | None = None,
                          sigma_p: float | None = None) -> RegimeReport:
    """Collect every closed-form double-barrier observable at momentum p. phi_p
    is the continuous single-barrier phase, so a wall where T0 underflows gets one."""
    single = square_barrier_amplitudes(p, v0, a, m)
    t0_abs, phi = np.abs(single.T), _single_barrier_phase(p, v0, a, m)
    tau = square_barrier_tunneling_time(p, v0, a, m)
    v = relativistic_kinematics(p, m).velocity
    phi_prime = v * tau - a  # tau = (phi' + a)/v inverted
    dt = 2.0 * (r / v + tau)
    gamma = t0_abs ** 2 / (r / v + tau)
    beta = wrap_pi(2.0 * p * (r + a) + 2.0 * phi + math.pi)
    dbl = piecewise_amplitudes(PotentialProfile.double(m, v0, a, r), p)
    report = RegimeReport(
        p=p, v0=v0, a=a, r=r, mass=m,
        t_d=2.0 * phi_prime / v, tau_p=tau, dt=dt, gamma_p=gamma, beta_p=beta,
        T0p_abs2=t0_abs ** 2, R0p_abs2=float(np.abs(single.R)) ** 2,
        transmission_p=float(np.abs(dbl.A)) ** 2,
        phi_p=phi, phi_prime_p=phi_prime,
        sigma_p=sigma_p,
    )
    if L is not None and x0 is not None:
        report.t0 = (L + x0 + 2.0 * phi_prime) / v
    if sigma_p is not None:
        report.mu_p = beta / (2.0 * sigma_p * v * dt)
    return report


# ---------------------------------------------------------------------------
# regime densities


def _regime_setup(times, spec: WavePacketSpec, L: float, v0: float, a: float,
                  r: float, m: float, formula: str):
    """(times as an array, the double-barrier report with t0 and mu_p, v_p,
    the metadata of ``formula``): the common prologue of the regime densities."""
    report = double_barrier_report(spec.p, v0, a, r, m, L=L, x0=spec.x0,
                                   sigma_p=spec.sigma_p)
    meta = {"formula": formula, "report": report.to_dict(), "packet": spec.to_dict(),
            "detector": {"position": L}}
    return (np.asarray(times, dtype=float), report,
            relativistic_kinematics(spec.p, m).velocity, meta)


def _reflection_sum(times: np.ndarray, spec: WavePacketSpec, report: RegimeReport,
                    v: float, n_max: float) -> np.ndarray:
    """sum_{n <= n_max} |R0p|^{2n} e^{i n beta_p} u0(v (t - t0 - n dt)) at each t.

    A time t sees only the n with |v (t - t0 - n dt)| <= spec.reach, about
    c +- w with c = (t - t0)/dt, so each sample sums those few terms, never
    all n_max. The offsets from the first visible n go in blocks of
    _SERIES_CHUNK times x offsets entries, which bounds the memory when
    overlapping peaks widen the window. The block temporaries end with this
    frame, before the caller allocates its output.
    """
    r0sq = report.R0p_abs2
    c = (times - report.t0) / report.dt
    w = spec.reach / (v * report.dt)
    n_lo = np.maximum(np.ceil(c - w), 0.0)
    counts = np.minimum(np.floor(c + w), n_max) - n_lo + 1.0  # terms per sample
    # |R0p|^{2n} e^{i n beta_p} = (that at n_lo) x (that at the offset)
    base = r0sq ** n_lo * np.exp(1j * report.beta_p * n_lo)
    amp = np.zeros(times.size, dtype=complex)
    width = int(max(np.max(counts), 0.0))
    block = max(1, _SERIES_CHUNK // times.size)
    for start in range(0, width, block):
        j = np.arange(start, min(start + block, width), dtype=float)
        n = n_lo[:, None] + j
        env = spec.position_envelope(v * (times[:, None] - report.t0 - n * report.dt))
        step = r0sq ** j * np.exp(1j * report.beta_p * j)
        amp += base * ((env * (j < counts[:, None])) @ step)
    return amp


def peak_series_density(times, spec: WavePacketSpec, L: float, v0: float,
                        a: float, r: float, m: float) -> ArrivalDistribution:
    """Sum-of-reflections P(L, t): peaks at t0 + n dt, suppressed |R0p|^{4n}.

    Valid when the peaks do not overlap (sigma_x << v_p dt); violating that
    is downgraded to a warning since the sum stays evaluable. The series is
    truncated at n_max, where |R0p|^(2 n_max) < 1e-8 (inf where |R0p|^2
    rounds to 1), and each time sums only the peaks the packet envelope
    reaches (``_reflection_sum``).
    """
    times, report, v, meta = _regime_setup(times, spec, L, v0, a, r, m, "peak-series")
    if spec.sigma_x >= v * report.dt / 4.0:
        warn_regime("peak_overlap",
                    f"sigma_x = {spec.sigma_x} >= v_p dt/4 = {v * report.dt / 4.0}: "
                    "peaks overlap, the non-overlapping-peak picture degrades",
                    sigma_x=spec.sigma_x, v_dt=v * report.dt)
    with np.errstate(divide="ignore"):  # -inf at |R0p| = 0, 0 where |R0p|^2 rounds to 1
        log_r = np.log(min(report.R0p_abs2, 1.0))
    n_max = float(math.ceil(math.log(_TAIL_BOUND) / log_r)) if log_r < 0.0 else math.inf
    amp = _reflection_sum(times, spec, report, v, n_max)
    density = v * report.T0p_abs2 ** 2 * np.abs(amp) ** 2
    meta["n_max"] = n_max
    return ArrivalDistribution(times=times, density=density, metadata=meta)


def envelope_density(t, report: RegimeReport):
    """Smooth inter-peak envelope: |T_p|^2 Gamma_p e^{-Gamma_p (t-t0)} past t0."""
    if report.t0 is None:
        raise PhysicsDomainError("report lacks t0: build it with L and x0")
    t = np.asarray(t, dtype=float)
    out = np.where(t < report.t0, 0.0,
                   report.transmission_p * report.gamma_p
                   * np.exp(-report.gamma_p * np.maximum(t - report.t0, 0.0)))
    return out[()]


def continuum_density(times, spec: WavePacketSpec, L: float, v0: float,
                      a: float, r: float, m: float) -> ArrivalDistribution:
    """Euler-Maclaurin continuum form of the peak sum (Gaussian packets).

    The reflection sum becomes a Gaussian-weighted Laplace integral with the
    closed form (sqrt(pi)/2A) e^{-bc + b^2/4A^2} erfc(-Ac + b/2A), b =
    -ln|R0p|^2 - i beta_p, plus half the n = 0 term. Late times decay at the
    peak-envelope rate (Gamma_p to leading order in |T0p|^2); the regime
    wants sigma_p v_p dt <~ 1.
    """
    if spec.shape != REGIME_SHAPES["continuum"]:
        raise PhysicsDomainError("continuum regime formula requires a Gaussian packet")
    times, report, v, meta = _regime_setup(times, spec, L, v0, a, r, m, "continuum")
    A = spec.sigma_p * v * report.dt
    if A > 3.0:
        warn_regime("continuum_regime",
                    f"sigma_p v_p dt = {A:.2f} > 3: peaks are well separated, "
                    "the continuum approximation degrades",
                    sigma_v_dt=A)
    b = -math.log(report.R0p_abs2) - 1j * report.beta_p
    c = (times - report.t0) / report.dt
    # z^2 = A^2 c^2 - bc + b^2/4A^2, so e^{-bc + b^2/4A^2} erfc(z) is
    # e^{-A^2 c^2} w(iz) for Re z >= 0, and for Re z < 0, by erfc(z) =
    # 2 - erfc(-z), 2 e^{-bc + b^2/4A^2} - e^{-A^2 c^2} w(-iz), where the
    # first real exponent is below -(ln^2|R0p|^2 + beta_p^2)/4A^2 <= 0.
    z = -A * c + b / (2.0 * A)
    neg = z.real < 0.0
    gauss = np.exp(-(A * c) ** 2)
    lap = gauss * faddeeva_w(1j * np.where(neg, -z, z))
    reflection = 2.0 * np.exp(np.where(neg, -b * c + b * b / (4.0 * A * A), 0.0))
    lap = np.where(neg, reflection - lap, lap)
    u0max = float(spec.position_envelope(0.0))
    amp = u0max * (math.sqrt(math.pi) / (2.0 * A) * lap + 0.5 * gauss)
    density = v * report.T0p_abs2 ** 2 * np.abs(amp) ** 2
    return ArrivalDistribution(times=times, density=density, metadata=meta)


def _lorentzian_residue_amplitude(times, spec: WavePacketSpec, v: float,
                                  t0: float, k0: float, gamma_k0: float,
                                  v_k0: float) -> np.ndarray:
    """Contour-integral amplitude for one Lorentzian resonance channel.

    Poles: packet tails at q = +-i sigma, transmission resonance at
    q1 = (k0 - p) - i Gamma_k0/(2 v_k0). Both time branches are exact for the
    Lorentzian packet and linearized phase.
    """
    sig = spec.sigma_p
    C = float(spec.envelope(spec.p))
    a_lor = 2.0 * v_k0 / gamma_k0
    delta = k0 - spec.p
    q1 = delta - 1j / a_lor
    tt = v * (np.asarray(times, dtype=float) - t0)
    out = np.empty(tt.shape, dtype=complex)
    early = tt < 0
    out[early] = (1j * C * sig / (2 * a_lor)) * np.exp(sig * tt[early]) / (1j * sig - q1)
    late = ~early
    main = (C * sig ** 2 / a_lor) * np.exp(-1j * q1 * tt[late]) / (q1 * q1 + sig * sig)
    packet = -(1j * C * sig / (2 * a_lor)) * np.exp(-sig * tt[late]) / (q1 + 1j * sig)
    out[late] = main + packet
    return out


def resonance_density(times, spec: WavePacketSpec, L: float, k0: float,
                      v0: float, a: float, r: float, m: float) -> ArrivalDistribution:
    """Closed-form P(L, t) for a Lorentzian packet near one resonance k0: the
    one-resonance case of multi_resonance_density.

    With k0 = p the late-time tail is a pure exponential at rate Gamma_k0
    once t - t0 >> 1/(sigma_p v_p) and Gamma_k0 < 2 sigma_p v_p.
    """
    dist = multi_resonance_density(times, spec, L, [k0], v0, a, r, m)
    if abs(k0 - spec.p) > spec.sigma_p:
        warn_regime("resonance_offset",
                    f"|k0 - p| = {abs(k0 - spec.p):.3e} exceeds sigma_p: packet "
                    "barely overlaps the resonance",
                    k0=k0, p=spec.p, sigma_p=spec.sigma_p)
    dist.metadata.update(formula="resonance", k0=k0, gamma_k0=dist.metadata["gammas"][0])
    return dist


def multi_resonance_density(times, spec: WavePacketSpec, L: float,
                            resonance_momenta, v0: float, a: float, r: float,
                            m: float) -> ArrivalDistribution:
    """Sum of per-resonance amplitudes, the n-th with its pole at k_n and
    Gamma_k0, v_k0 taken there; late times beat at v_p (k_n - k_m)."""
    if spec.shape != REGIME_SHAPES["resonance"]:
        raise PhysicsDomainError("resonance regime formulas require a Lorentzian packet")
    ks = np.atleast_1d(np.asarray(resonance_momenta, dtype=float))
    if ks.size < 1:
        raise PhysicsDomainError("need at least one resonance momentum")
    times, report, v, meta = _regime_setup(times, spec, L, v0, a, r, m, "multi-resonance")
    ks = ks.tolist()
    gammas = [decay_rate(k0, v0, a, r, m) for k0 in ks]
    amp = sum(_lorentzian_residue_amplitude(times, spec, v, report.t0, k0, gamma_k0,
                                            relativistic_kinematics(k0, m).velocity)
              for k0, gamma_k0 in zip(ks, gammas))
    density = v * np.abs(amp) ** 2
    meta["resonance_momenta"] = ks
    meta["gammas"] = gammas
    return ArrivalDistribution(times=times, density=density, metadata=meta)


# ---------------------------------------------------------------------------
# extraction utilities


def detect_peaks(dist: ArrivalDistribution) -> list[tuple[float, float]]:
    """Local maxima above 1e-6 x global max, parabolically refined."""
    t = np.asarray(dist.times, float)
    y = np.asarray(dist.density, float)
    if t.size < 3:
        return []
    _uniform_step(t)
    h = t[1] - t[0]
    ymax = float(np.max(y))
    if ymax <= 0.0:
        return []
    out = []
    interior = np.nonzero((y[1:-1] > y[:-2]) & (y[1:-1] >= y[2:])
                          & (y[1:-1] > _PEAK_FLOOR * ymax))[0] + 1
    for i in interior:
        denom = y[i - 1] - 2.0 * y[i] + y[i + 1]
        if denom >= 0.0:
            off = 0.0
        else:
            off = 0.5 * (y[i - 1] - y[i + 1]) / denom
            off = float(np.clip(off, -0.5, 0.5))
        height = y[i] - 0.25 * (y[i - 1] - y[i + 1]) * off
        out.append((float(t[i] + off * h), float(height)))
    return out


@dataclass(frozen=True)
class ExponentialFit:
    rate: float
    log_intercept: float
    r_squared: float
    n_points: int
    window: tuple[float, float]
    degenerate: bool = False


def fit_exponential(dist: ArrivalDistribution, window: tuple[float, float],
                    on_peaks: bool = False) -> ExponentialFit:
    """Least-squares log-linear fit of the density (or its peak heights).

    on_peaks fits the sequence of local-maxima heights, which is what the
    escape rate governs in the multi-peak regime; raw samples otherwise.
    """
    t_lo, t_hi = window = (float(window[0]), float(window[1]))
    if on_peaks:
        pk = [(t, h) for t, h in detect_peaks(dist) if t_lo <= t <= t_hi]
        if len(pk) < 3:
            raise PhysicsDomainError(
                f"need >= 3 peaks inside the window, found {len(pk)}")
        tt = np.array([t for t, _ in pk])
        yy = np.array([h for _, h in pk])
    else:
        mask = (dist.times >= t_lo) & (dist.times <= t_hi)
        tt = dist.times[mask]
        yy = dist.density[mask]
        floor = _FIT_FLOOR * float(np.max(dist.density))
        keep = yy > floor
        tt, yy = tt[keep], yy[keep]
        if tt.size < FIT_MIN_SAMPLES:
            raise PhysicsDomainError(f"need >= {FIT_MIN_SAMPLES} samples above {floor:.3e} "
                                     f"in the window, got {tt.size}")
    if np.any(yy <= 0.0):
        raise PhysicsDomainError("non-positive densities in fit window")
    ly = np.log(yy)
    tm = tt - tt.mean()
    denom = float(np.dot(tm, tm))
    if denom == 0.0:
        return ExponentialFit(0.0, float(ly.mean()), 0.0, tt.size, window, degenerate=True)
    slope = float(np.dot(tm, ly - ly.mean())) / denom
    intercept = float(ly.mean() - slope * tt.mean())
    resid = ly - (slope * tt + intercept)
    ss_tot = float(np.dot(ly - ly.mean(), ly - ly.mean()))
    degenerate = ss_tot == 0.0
    r2 = 0.0 if degenerate else 1.0 - float(np.dot(resid, resid)) / ss_tot
    # the fitted density: a model one names its formula, a quadrature one is direct
    ctx = dict(density=dist.metadata.get("formula", "direct"), window=window, n_points=tt.size)
    if degenerate:
        warn_regime("fit_degenerate", "constant data: R^2 undefined, rate 0", **ctx)
    elif r2 < 0.9:
        warn_regime("fit_quality", f"exponential fit R^2 = {r2:.3f} < 0.9", r_squared=r2, **ctx)
    return ExponentialFit(-slope, intercept, r2, tt.size, window, degenerate=degenerate)


def causality_mass(dist: ArrivalDistribution, L: float, x0: float,
                   slack: float) -> float:
    """Fraction of probability mass earlier than the light cone minus slack.

    The light cone is t = L + x0 (c = 1); slack = -inf counts everything.
    """
    t = np.asarray(dist.times, float)
    y = np.asarray(dist.density, float)
    total = float(np.trapezoid(y, t))
    if total <= 0.0:
        return 0.0
    cut = (L + x0) - slack
    if cut >= t[-1]:
        return 1.0
    if cut <= t[0]:
        return 0.0
    i = int(np.searchsorted(t, cut))
    tt = np.concatenate([t[:i], [cut]])
    yy = np.concatenate([y[:i], [float(np.interp(cut, t, y))]])
    return float(np.trapezoid(yy, tt)) / total
