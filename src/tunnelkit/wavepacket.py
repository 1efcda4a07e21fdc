"""Wave packets, detectors, and the arrival density P(L, t).

The arrival amplitude is the oscillatory momentum integral

    A(L, t) = int_0^inf dk/(2pi) sqrt(alpha(k) v_k) A_k psi0(k) e^{ikL - iE_k t}

evaluated over the packet window [max(0, p - 8 sigma_p), p + 8 sigma_p] with
adaptive Gauss-Kronrod panels. A time grid shares one refined panel set, and
so one evaluation of the detection amplitude A_k per node, across all samples.
On a uniform grid the kernel e^{-iE_k t} factors over blocks of about sqrt(T)
times into two thin tables, each the powers of one exp per node, and the T
amplitudes are one matrix product of them; a non-uniform grid takes the same
path with one time per block and a direct exp table. The tables are phased
in E_k - E_c, E_c a reference energy of the nodes, so their rounding scales
with the energy spread rather than with E_k t. The product also gives each
sample's embedded K15 - G7 error, and the panels are refined until every
sample, not only the ones refined on, meets rel_tol.

Normalization: int |psi0(k)|^2 dk/(2pi) = 1, so the time-integrated density
is a genuine detection probability (<= 1 for alpha <= 1).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import _quadrature
from .errors import NumericsError, PhysicsDomainError, warn_regime
from .kinematics import relativistic_kinematics
from .scattering import PotentialProfile, detection_amplitude_scan, detection_phase_derivative

_KWINDOW_SIGMAS = 8.0
_ENVELOPE_FLOOR = 1e-18  # u0(x)/u0(0) beyond WavePacketSpec.reach
MIN_L_OVER_D = 10.0  # far-field bound: a detector at L >= 10 d
GRID_SPAN_SIGMAS = 10.0  # recommended half-span of a time grid, in sigma_x/v_p
DENSITY_REL_TOL = 1e-8  # default rel_tol of the arrival amplitude and density
_WARN_L_OVER_D = 50.0
_KERNEL_CHUNK = 2 ** 18  # bound on nodes x (A + 2B) kernel-table entries (4 MB) held at once
_N_REP = 24  # representative times a time-grid refinement starts from
GRID_MAX_PANELS = 60000  # panel limit of a time-grid refinement
GRID_MAX_ROUNDS = 60  # bisection rounds of a time-grid refinement, resumptions included
_CSV_BLOCK = 1024  # CSV rows formatted per write


# ---------------------------------------------------------------------------
# packets


@dataclass(frozen=True)
class WavePacketSpec:
    """Initial single-particle packet centered at x = -x0, momentum p.

    shape is "gaussian" or "lorentzian"; sigma_p < p/3 keeps the packet on
    positive momenta to within 3 sigma.
    """

    shape: str
    p: float
    sigma_p: float
    x0: float

    def __post_init__(self):
        if self.shape not in ("gaussian", "lorentzian"):
            raise PhysicsDomainError(f"must be 'gaussian' or 'lorentzian', got {self.shape!r}",
                                     field="shape")
        if not (self.p > 0 and math.isfinite(self.p)):
            raise PhysicsDomainError(f"mean momentum must be positive, got {self.p}", field="p")
        if not (self.sigma_p > 0 and math.isfinite(self.sigma_p)):
            raise PhysicsDomainError(f"momentum spread must be positive, got {self.sigma_p}",
                                     field="sigma_p")
        if self.sigma_p >= self.p / 3.0:
            raise PhysicsDomainError(
                f"sigma_p = {self.sigma_p} >= p/3 = {self.p / 3.0}: packet would "
                "leak onto negative momenta", field="sigma_p")
        if not (self.x0 > 0 and math.isfinite(self.x0)):
            raise PhysicsDomainError(f"emission center x0 must be positive, got {self.x0}",
                                     field="x0")

    @property
    def sigma_x(self) -> float:
        """Position spread: 1/(2 sigma_p) for Gaussian (minimum-uncertainty),
        1/(sqrt(2) sigma_p) for the Lorentzian shape."""
        if self.shape == "gaussian":
            return 0.5 / self.sigma_p
        return 1.0 / (math.sqrt(2.0) * self.sigma_p)

    @property
    def reach(self) -> float:
        """|x| past which the position envelope u0(x) stays below 1e-18 of
        u0(0): 6.44/sigma_p for the Gaussian e^{-sigma_p^2 x^2}, 41.4/sigma_p
        for the Lorentzian e^{-sigma_p |x|}."""
        decades = -math.log(_ENVELOPE_FLOOR)
        if self.shape == "gaussian":
            return math.sqrt(decades) / self.sigma_p
        return decades / self.sigma_p

    @property
    def k_window(self) -> tuple[float, float]:
        lo = max(self.p - _KWINDOW_SIGMAS * self.sigma_p, 1e-12 * self.p)
        return (lo, self.p + _KWINDOW_SIGMAS * self.sigma_p)

    def envelope(self, k) -> np.ndarray:
        """Real envelope u~0(k - p), normalized to int |.|^2 dk/(2pi) = 1."""
        q = np.asarray(k, dtype=float) - self.p
        if self.shape == "gaussian":
            c = (2.0 * math.pi / self.sigma_p ** 2) ** 0.25
            return c * np.exp(-q * q / (4.0 * self.sigma_p ** 2))
        c = 2.0 / math.sqrt(self.sigma_p)
        return c / (1.0 + (q / self.sigma_p) ** 2)

    def momentum_amplitude(self, k) -> np.ndarray:
        """psi0(k) = u~0(k - p) e^{i k x0}."""
        k = np.asarray(k, dtype=float)
        return self.envelope(k) * np.exp(1j * k * self.x0)

    def position_envelope(self, x) -> np.ndarray:
        """u0(x) = int dk/(2pi) e^{-ikx} u~0(k); real and even."""
        x = np.asarray(x, dtype=float)
        if self.shape == "gaussian":
            c = (2.0 / math.pi) ** 0.25 * math.sqrt(self.sigma_p)
            return c * np.exp(-self.sigma_p ** 2 * x * x)
        return math.sqrt(self.sigma_p) * np.exp(-self.sigma_p * np.abs(x))


def packet_momentum_amplitude(spec: WavePacketSpec, k):
    """Momentum-space amplitude of the initial packet at k (scalar or array)."""
    k = np.asarray(k, dtype=float)
    bad = k[~np.isfinite(k)]
    if bad.size:
        raise PhysicsDomainError(f"momenta must be finite, got {bad.size} such as {bad[0]}")
    return spec.momentum_amplitude(k)[()]


# ---------------------------------------------------------------------------
# detectors


def _pchip_slopes(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    # Fritsch-Carlson monotone slopes
    h = np.diff(x)
    delta = np.diff(y) / h
    d = np.zeros_like(y)
    if y.size == 2:
        d[:] = delta[0]
        return d
    same = np.sign(delta[:-1]) * np.sign(delta[1:]) > 0
    w1 = 2 * h[1:] + h[:-1]
    w2 = h[1:] + 2 * h[:-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        harm = (w1 + w2) / (w1 / delta[:-1] + w2 / delta[1:])
    d[1:-1] = np.where(same, harm, 0.0)
    for idx, h0, h1, d0, d1 in ((0, h[0], h[1], delta[0], delta[1]),
                                (-1, h[-1], h[-2], delta[-1], delta[-2])):
        slope = ((2 * h0 + h1) * d0 - h0 * d1) / (h0 + h1)
        if np.sign(slope) != np.sign(d0):
            slope = 0.0
        elif np.sign(d0) != np.sign(d1) and abs(slope) > 3 * abs(d0):
            slope = 3 * d0
        d[idx] = slope
    return d


@dataclass(frozen=True)
class DetectorSpec:
    """Detector at x = L with absorption coefficient alpha(k) in [0, 1].

    absorption is a constant, or a (k_points, values) table interpolated by a
    monotone cubic so alpha never overshoots its samples.
    """

    position: float
    absorption: object = 1.0

    def __post_init__(self):
        if not (self.position > 0 and math.isfinite(self.position)):
            raise PhysicsDomainError(f"detector position must be positive, got {self.position}",
                                     field="position")
        if not isinstance(self.absorption, (tuple, list)) and np.ndim(self.absorption) == 0:
            a = float(self.absorption)
            if not (0.0 <= a <= 1.0):
                raise PhysicsDomainError(f"absorption must lie in [0, 1], got {a}",
                                         field="absorption")
            return
        kt, at = (np.asarray(x, dtype=float) for x in self.absorption)
        if (kt.ndim != 1 or kt.shape != at.shape or kt.size < 2
                or not np.all(np.isfinite(kt) & np.isfinite(at)) or np.any(np.diff(kt) <= 0)):
            raise PhysicsDomainError("tabulated absorption needs parallel lists of >= 2 finite "
                                     "samples, k increasing", field="absorption")
        if np.any(at < 0) or np.any(at > 1):
            raise PhysicsDomainError("absorption samples must lie in [0, 1]", field="absorption")

    def absorption_at(self, k) -> np.ndarray:
        k = np.asarray(k, dtype=float)
        if np.ndim(self.absorption) == 0:
            return np.full(k.shape, float(self.absorption))
        kt = np.asarray(self.absorption[0], float)
        at = np.asarray(self.absorption[1], float)
        d = _pchip_slopes(kt, at)
        kk = np.clip(k, kt[0], kt[-1])
        i = np.clip(np.searchsorted(kt, kk) - 1, 0, kt.size - 2)
        h = kt[i + 1] - kt[i]
        s = (kk - kt[i]) / h
        h00 = (1 + 2 * s) * (1 - s) ** 2
        h10 = s * (1 - s) ** 2
        h01 = s * s * (3 - 2 * s)
        h11 = s * s * (s - 1)
        return h00 * at[i] + h10 * h * d[i] + h01 * at[i + 1] + h11 * h * d[i + 1]

    def check_far_field(self, profile: PotentialProfile | None) -> None:
        d = profile.width if profile is not None else 0.0
        if d == 0.0:
            return
        if self.position < MIN_L_OVER_D * d:
            raise PhysicsDomainError(
                f"detector at L = {self.position} violates the far-field "
                f"requirement L >= {MIN_L_OVER_D} d = {MIN_L_OVER_D * d}")
        if self.position < _WARN_L_OVER_D * d:
            warn_regime("far_field_marginal",
                        f"L = {self.position} below {_WARN_L_OVER_D} d: "
                        "signal-only formula is marginal",
                        L=self.position, d=d)


# ---------------------------------------------------------------------------
# arrival distribution container


@dataclass
class ArrivalDistribution:
    """P(L, t) sampled on a uniform time grid, with run metadata."""

    times: np.ndarray
    density: np.ndarray
    metadata: dict = field(default_factory=dict)

    def total_mass(self) -> float:
        return float(np.trapezoid(self.density, self.times))

    def write_csv(self, path) -> None:
        _write_csv(path, ["t", "P"], [self.times, self.density])

    def write_sidecar(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump(self.metadata, f, indent=2, sort_keys=True, default=_json_default)
            f.write("\n")


def _write_csv(path, header: list[str], columns) -> None:
    """Write equal-length columns under ``header``, each row by one format
    string: %.17g for numbers, %s for a column of str. Rows are formatted
    and written in blocks, so a long scan never holds its whole text."""
    cols = [np.asarray(c) for c in columns]
    line = ",".join("%s" if c.dtype.kind == "U" else "%.17g" for c in cols) + "\n"
    n = cols[0].size if cols else 0
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write(",".join(header) + "\n")
        for i in range(0, n, _CSV_BLOCK):
            rows = zip(*(c[i:i + _CSV_BLOCK].tolist() for c in cols))
            f.write("".join([line % row for row in rows]))


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, Path):
        return str(obj)
    raise TypeError(f"not JSON serializable: {type(obj)}")


# ---------------------------------------------------------------------------
# the oscillatory integral engine


def _mass(profile: PotentialProfile | None) -> float:
    """The profile's mass, or 1 (everything in units of the particle mass)
    for a free run."""
    return profile.mass if profile is not None else 1.0


def _smooth_part(spec: WavePacketSpec, profile: PotentialProfile | None, alpha,
                 detection_amplitude=None):
    """k -> sqrt(alpha(k) v_k) A_k psi0(k): the arrival integrand without the
    phase e^{ikL - iE_k t}. ``alpha`` is a callable of a momentum array, or
    None for alpha = 1; a model ``detection_amplitude`` replaces the
    profile's A_k."""
    mass = _mass(profile)

    def smooth(k: np.ndarray) -> np.ndarray:
        amp = (detection_amplitude_scan(profile, k) if detection_amplitude is None
               else np.asarray(detection_amplitude(k), dtype=complex))
        v = relativistic_kinematics(k, mass).velocity
        a = 1.0 if alpha is None else np.asarray(alpha(k), dtype=float)
        return np.sqrt(a * v) * amp * spec.momentum_amplitude(k)
    return smooth


def _first_peak_phase_derivative(profile: PotentialProfile | None, p):
    """theta'_p of the first detected peak, at a scalar or an array p.

    For a symmetric double barrier that is twice the single-barrier phase
    derivative, not the composite-amplitude derivative, which oscillates
    through the resonances; any other profile gives its own derivative.
    """
    dbl = profile.as_symmetric_double() if profile is not None else None
    if dbl is None:
        return detection_phase_derivative(profile, p)
    v0, a, _ = dbl
    return 2.0 * detection_phase_derivative(PotentialProfile.square(profile.mass, v0, a), p)


def stationary_phase_time(spec: WavePacketSpec, profile: PotentialProfile | None,
                          L: float) -> float:
    """Peak-time estimate (x0 + L + theta'_p)/v_p of the first detected peak
    from the stationary phase, at a detector position L or a numpy array of
    them."""
    theta_prime = _first_peak_phase_derivative(profile, spec.p)
    v = relativistic_kinematics(spec.p, _mass(profile)).velocity
    return (spec.x0 + L + theta_prime) / v


def _phase_rate(spec: WavePacketSpec, mass: float, L: float, t_lo: float, t_hi: float):
    """Bound on |d/dk (k (x0 + L) - E_k t)| over the packet window and [t_lo, t_hi]."""
    X = L + spec.x0
    vs = [relativistic_kinematics(k, mass).velocity for k in spec.k_window]
    return max(abs(X - v * t) for v in vs for t in (t_lo, t_hi)) + 1.0


def prepanel_count(spec: WavePacketSpec, mass: float, L: float, t_lo: float,
                   t_hi: float) -> float:
    """Phase pre-panels of the times [t_lo, t_hi] at a detector at L, before
    any cap. A window above GRID_MAX_PANELS cannot converge."""
    return _quadrature.phase_panel_count(*spec.k_window,
                                         _phase_rate(spec, mass, L, t_lo, t_hi))


def _initial_edges(spec: WavePacketSpec, mass: float, L: float, t_lo: float, t_hi: float):
    edges = _quadrature.phase_panels(*spec.k_window, _phase_rate(spec, mass, L, t_lo, t_hi))
    if edges.size - 1 < 32:  # resolve the packet envelope even when slow
        edges = np.linspace(*spec.k_window, 33)
    return edges


def arrival_amplitude(L: float, t: float, spec: WavePacketSpec,
                      profile: PotentialProfile | None, alpha=None,
                      rel_tol: float = DENSITY_REL_TOL, detection_amplitude=None) -> complex:
    """Arrival amplitude A(L, t) at a single detection time.

    ``detection_amplitude`` substitutes a model A_k (callable of a momentum
    array) for the profile-derived one, e.g. a Lorentzian resonance
    approximation; the profile then only supplies geometry. With g the
    integrand, the quadrature also integrates |g|: int |g| dk/2pi bounds
    every |A(L, t)|, and rel_tol is relative to it rather than to the
    amplitude, which is tiny in the tails.
    """
    mass = _mass(profile)
    smooth = _smooth_part(spec, profile, alpha, detection_amplitude)

    def f(k):
        g = smooth(k)
        E = relativistic_kinematics(k, mass).energy
        return np.stack([g * np.exp(1j * (k * L - E * t)), np.abs(g)], axis=1)

    quad = _quadrature.adaptive_quad(f, _initial_edges(spec, mass, L, t, t), rel_tol)
    return complex(quad.value[0]) / (2.0 * math.pi)


def _time_blocks(times: np.ndarray) -> tuple[int, int, float]:
    """(A, B, h): the grid read as A blocks of B steps h, t_{aB+b} = t_{aB} + b h.

    B = ceil(sqrt(n)) when the grid is uniform to within 8 ulp of max|t|,
    below which the direct kernel's own E t rounding is as large; otherwise
    B = 1, one block per time.
    """
    n = times.size
    h = (times[-1] - times[0]) / (n - 1)
    dev = np.max(np.abs(times - (times[0] + h * np.arange(n))))
    uniform = dev <= 8.0 * np.spacing(np.max(np.abs(times)))
    B = math.ceil(math.sqrt(n)) if uniform else 1
    return -(-n // B), B, h


def _powers(first: np.ndarray, ratio: np.ndarray, count: int) -> np.ndarray:
    """(count, N) table first ratio^j, j = 0 .. count - 1: a running product
    down the rows, one multiply per entry. (np.cumprod gives the same table,
    but its complex loop is 5x slower than a row of vector multiplies.)"""
    table = np.empty((count, first.size), dtype=complex)
    table[0] = first
    for j in range(1, count):
        np.multiply(table[j - 1], ratio, out=table[j])
    return table


def _grid_pass(smooth, mass: float, L: float, quad, times: np.ndarray):
    """K15 amplitudes and |K15 - G7| error estimates at every time of the grid.

    The kernel factors over the blocks of ``_time_blocks``: e^{-iE t_{aB+b}} =
    e^{-iE t_{aB}} e^{-iE b h}, so with U[node, a] = e^{-iE t_{aB}} and
    V[node, b] = coeff e^{-iE b h} the sums are (U^T V).ravel()[:n], one
    matrix product. V stacks the K15 coefficients beside the (K15 - G7)
    ones, so the same product gives both. On a uniform grid (B > 1) both
    tables are powers of one exp per node: V[:, b] = coeff w^b with
    w = e^{-iE h}, and U[:, a] = e^{-iE t_0} W^a with W = e^{-iE B h}, each
    a running product (``_powers``), so the pass costs 3N complex exps and
    N (A + B) multiplies where the direct tables took N (A + B) exps.
    A grid that is not uniform gets B = 1, whose anchors are not
    t_0 + a B h, so U stays the direct table e^{-iE t}.

    The tables are phased in E - E_c, E_c the midpoint of the node energies:
    the factor e^{-iE_c t} is common to every node, so it multiplies the K15
    sums on the way out and drops out of |K15 - G7|. This keeps the phase
    arguments, and their rounding, to the energy spread times t rather than
    E t, which reaches 1e6 rad on long peak trains.
    """
    A, B, h = _time_blocks(times)
    x, wk, wg = _quadrature.panel_nodes(quad.lo, quad.hi)
    s = smooth(x.ravel()).reshape(x.shape) * np.exp(1j * x * L)
    coeff = np.stack([(wk * s).ravel(), ((wk - wg) * s).ravel()], axis=1)
    E = relativistic_kinematics(x, mass).energy.ravel()
    E_c = 0.5 * (np.min(E) + np.max(E))
    dE = E - E_c
    blocks = np.zeros((A, 2 * B), dtype=complex)
    chunk = max(1, int(_KERNEL_CHUNK // (A + 2 * B)))
    for i in range(0, E.size, chunk):
        e = dE[i:i + chunk]
        V = coeff[i:i + chunk, :, None]
        if B > 1:
            UT = _powers(np.exp(-1j * e * times[0]), np.exp(-1j * e * (B * h)), A)
            V = V * _powers(np.ones(e.size), np.exp(-1j * e * h), B).T[:, None, :]
        else:
            UT = np.exp(-1j * times[:, None] * e)
        blocks += UT @ V.reshape(e.size, 2 * B)
    k15, diff = blocks.reshape(A, 2, B).transpose(1, 0, 2).reshape(2, A * B)[:, :times.size]
    return k15 * np.exp(-1j * E_c * times), np.abs(diff), [A, B]


def _shared_panel_amplitudes(smooth, spec: WavePacketSpec, mass: float, L: float,
                             times: np.ndarray, rel_tol: float):
    """Amplitudes on a whole time grid from one adaptively refined panel set.

    The panels are refined on 24 representative times and on |g|, the
    integrand without its phase: int |g| dk bounds every |A|, and rel_tol is
    relative to it, as in arrival_amplitude. Then one pass (``_grid_pass``)
    evaluates K15 and the embedded |K15 - G7| estimate at every time of the
    grid on the final panels. Every sample must hold
    |K15 - G7| <= rel_tol int |g| dk; where any misses, its worst times join
    the representative set and refinement resumes from the current panels,
    within GRID_MAX_PANELS panels and GRID_MAX_ROUNDS rounds in all. The
    reported ``error_estimate`` bounds |A| everywhere: the larger of the
    refinement's summed estimate and the worst per-sample one, over 2 pi.
    int |g| dk = 0 gives an exactly zero grid and a ``no_signal`` warning.
    """
    edges = _initial_edges(spec, mass, L, float(times[0]), float(times[-1]))
    rep = times[np.unique(np.linspace(0, times.size - 1, min(_N_REP, times.size)).astype(int))]

    def f(k):  # one column per representative time, then |g|
        g = smooth(k)
        kern = np.exp(-1j * relativistic_kinematics(k, mass).energy[:, None] * rep[None, :])
        return np.column_stack([(g * np.exp(1j * k * L))[:, None] * kern, np.abs(g)])

    rounds = rechecks = 0
    while True:
        try:
            quad = _quadrature.adaptive_quad(f, edges, rel_tol, max_panels=GRID_MAX_PANELS,
                                             max_rounds=GRID_MAX_ROUNDS - rounds)
        except NumericsError as exc:
            exc.diagnostics["refinement_rounds"] += rounds
            raise
        rounds += quad.rounds
        amps, err, time_blocks = _grid_pass(smooth, mass, L, quad, times)
        # an all-zero grid (alpha = 0) has err = tol = 0 and passes
        tol = rel_tol * float(quad.value[-1].real)
        miss = np.flatnonzero(err > tol)
        if miss.size == 0:
            break
        worst = times[miss[np.argsort(err[miss])[::-1][:_N_REP]]]
        if np.all(np.isin(worst, rep)):
            raise NumericsError(
                "quadrature failed to converge on the full time grid",
                diagnostics={"panels": int(quad.lo.size), "refinement_rounds": rounds,
                             "total_error": float(np.max(err)), "tolerance": tol,
                             "worst_time": float(worst[0])})
        rep = np.union1d(rep, worst)
        edges = np.append(np.sort(quad.lo), np.max(quad.hi))
        rechecks += 1
    if quad.value[-1].real == 0.0:
        warn_regime("no_signal", "int |g| dk = 0 on the packet window (|A_k| underflows "
                    "or alpha = 0 there): the density is exactly 0")
    error = max(quad.error_estimate, float(np.max(err))) / (2.0 * math.pi)
    diagnostics = {"panels": int(quad.lo.size), "refinement_rounds": rounds,
                   "error_estimate": error, "grid_rechecks": rechecks,
                   "time_blocks": time_blocks}
    return amps / (2.0 * math.pi), diagnostics


def arrival_density(times, spec: WavePacketSpec, profile: PotentialProfile | None,
                    detector: DetectorSpec, rel_tol: float = DENSITY_REL_TOL,
                    detection_amplitude=None) -> ArrivalDistribution:
    """Sample P(L, t) = |A(L, t)|^2 on a uniform time grid.

    One refined panel set is shared by every grid point; ``detection_amplitude``
    substitutes a model A_k as in arrival_amplitude. The grid should span the
    expected peak by +-10 sigma_x/v_p; a narrower grid is accepted with a
    structured warning.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size < 4 or np.any(np.diff(times) <= 0):
        raise PhysicsDomainError("need an increasing time grid with >= 4 points")
    detector.check_far_field(profile)
    mass = _mass(profile)
    L = detector.position

    vp = relativistic_kinematics(spec.p, mass).velocity
    if detection_amplitude is None:
        t_bar = stationary_phase_time(spec, profile, L)
    else:
        t_bar = (spec.x0 + L) / vp
    span = GRID_SPAN_SIGMAS * spec.sigma_x / vp
    if times[0] > t_bar - span or times[-1] < t_bar + span:
        warn_regime("grid_span",
                    f"time grid [{times[0]}, {times[-1]}] does not cover the "
                    f"recommended window around the expected peak t = {t_bar}",
                    t_peak=t_bar, recommended_halfspan=span)

    smooth = _smooth_part(spec, profile, detector.absorption_at, detection_amplitude)
    amps, diagnostics = _shared_panel_amplitudes(smooth, spec, mass, L, times, rel_tol)
    density = np.abs(amps) ** 2
    meta = {
        "packet": {"shape": spec.shape, "p": spec.p, "sigma_p": spec.sigma_p,
                   "x0": spec.x0},
        "profile": profile.to_dict() if profile is not None else None,
        "detector": {"position": L},
        "quadrature": diagnostics,
        "t_peak_estimate": t_bar,
    }
    return ArrivalDistribution(times=times, density=density, metadata=meta)


def total_transmission(spec: WavePacketSpec, profile: PotentialProfile | None,
                       alpha=None, rel_tol: float = 1e-10) -> float:
    """int dk/(2pi) alpha(k) |A_k|^2 |u~0(k - p)|^2 (no time integral)."""
    mass = _mass(profile)
    smooth = _smooth_part(spec, profile, alpha)

    def f(k):  # |sqrt(alpha v) A_k psi0|^2 / v = alpha |A_k|^2 |u~0|^2
        return (np.abs(smooth(k)) ** 2 / relativistic_kinematics(k, mass).velocity)[:, None]

    lo, hi = spec.k_window
    quad = _quadrature.adaptive_quad(f, np.linspace(lo, hi, 65), rel_tol)
    return float(quad.value[0].real) / (2.0 * math.pi)
