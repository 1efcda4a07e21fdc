"""Wave packets, detectors, and the arrival density P(L, t).

The arrival amplitude is the oscillatory momentum integral

    A(L, t) = int_0^inf dk/(2pi) sqrt(alpha(k) v_k) A_k psi0(k) e^{ikL - iE_k t}

evaluated over the packet window [max(0, p - 8 sigma_p), p + 8 sigma_p] with
adaptive Gauss-Kronrod panels. A time grid shares one refined panel set, and
so one evaluation of the detection amplitude A_k per node, across all samples:
the refinement keeps A_k at every node it evaluates, and the final pass finds
its nodes among them. The grid must be uniform, and the kernel e^{-iE_k t}
factors over blocks of about sqrt(T) times into two thin tables, each the
powers of one exp per node, so the T amplitudes are one matrix product of
them. The tables are phased in E_k - E_c, E_c a reference energy of the
nodes, so their rounding scales with the energy spread rather than with
E_k t. The product also gives each sample's embedded K15 - G7 error, and a
grid on which any sample, not only the ones refined on, misses rel_tol raises.

Normalization: int |psi0(k)|^2 dk/(2pi) = 1, so the time-integrated density
is a genuine detection probability (<= 1 for alpha <= 1).
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass, field
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
_KERNEL_CHUNK = 2 ** 16  # bound on nodes x (A + 2B) kernel-table entries (1 MB) held at once
_N_REP = 24  # representative times a time-grid refinement integrates
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

    def to_dict(self) -> dict:
        return asdict(self)

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

    def check_far_field(self, profile: PotentialProfile) -> None:
        d = profile.width
        if d == 0.0:
            return
        if self.position < MIN_L_OVER_D * d:
            raise PhysicsDomainError(
                f"detector at L = {self.position} violates the far-field "
                f"requirement L >= {MIN_L_OVER_D:g} d = {MIN_L_OVER_D * d}", field="position")
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
        _write_csv(path, ["t", "P"], [(self.times, self.density)])

    def write_sidecar(self, path) -> None:
        _write_json(path, self.metadata)


def _write_atomic(path, write) -> None:
    """Call ``write(f)`` on the sibling ``<path>.part``, then move it over ``path``;
    if ``write`` raises, the part file is removed and ``path`` left as it was."""
    part = f"{path}.part"
    try:
        with open(part, "w", encoding="utf-8", newline="") as f:
            write(f)
        os.replace(part, path)
    except BaseException:
        Path(part).unlink(missing_ok=True)
        raise


def _write_csv(path, header: list[str], blocks) -> None:
    """Write ``blocks``, each a sequence of equal-length columns, as rows under
    ``header``, one format string per row: %.17g for numbers, %s for a str
    column. A scan passes a generator of blocks, so it never holds more than
    one; rows are written _CSV_BLOCK at a time, by ``_write_atomic``."""
    def write(f):
        f.write(",".join(header) + "\n")
        for block in blocks:
            cols = [np.asarray(c) for c in block]
            line = ",".join("%s" if c.dtype.kind == "U" else "%.17g" for c in cols) + "\n"
            n = cols[0].size if cols else 0
            for i in range(0, n, _CSV_BLOCK):
                rows = zip(*(c[i:i + _CSV_BLOCK].tolist() for c in cols))
                f.write("".join([line % row for row in rows]))
    _write_atomic(path, write)


def _json_default(obj):
    if isinstance(obj, (np.generic, np.ndarray)):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _write_json(path, obj) -> None:
    """Write obj as indented JSON with sorted keys; numpy values as Python ones."""
    text = json.dumps(obj, indent=2, sort_keys=True, default=_json_default) + "\n"
    _write_atomic(path, lambda f: f.write(text))


# ---------------------------------------------------------------------------
# the oscillatory integral engine


def _smooth_part(spec: WavePacketSpec, profile: PotentialProfile, alpha,
                 detection_amplitude=None):
    """k -> sqrt(alpha(k) v_k) A_k psi0(k): the arrival integrand without the
    phase e^{ikL - iE_k t}. ``alpha`` is a callable of a momentum array, or
    None for alpha = 1; a model ``detection_amplitude`` replaces the
    profile's A_k."""
    mass = profile.mass

    def smooth(k: np.ndarray) -> np.ndarray:
        amp = (detection_amplitude_scan(profile, k) if detection_amplitude is None
               else np.asarray(detection_amplitude(k), dtype=complex))
        v = relativistic_kinematics(k, mass).velocity
        a = 1.0 if alpha is None else np.asarray(alpha(k), dtype=float)
        return np.sqrt(a * v) * amp * spec.momentum_amplitude(k)
    return smooth


def _first_peak_phase_derivative(profile: PotentialProfile, p):
    """theta'_p of the first detected peak, at a scalar or an array p.

    For a symmetric double barrier that is twice the single-barrier phase
    derivative, not the composite-amplitude derivative, which oscillates
    through the resonances; any other profile gives its own derivative.
    """
    dbl = profile.as_symmetric_double()
    if dbl is None:
        return detection_phase_derivative(profile, p)
    v0, a, _ = dbl
    return 2.0 * detection_phase_derivative(PotentialProfile.square(profile.mass, v0, a), p)


def stationary_phase_time(spec: WavePacketSpec, profile: PotentialProfile, L: float) -> float:
    """Peak-time estimate (x0 + L + theta'_p)/v_p of the first detected peak
    from the stationary phase, at a detector position L or a numpy array of
    them."""
    theta_prime = _first_peak_phase_derivative(profile, spec.p)
    v = relativistic_kinematics(spec.p, profile.mass).velocity
    return (spec.x0 + L + theta_prime) / v


def _phase_rate(spec: WavePacketSpec, mass: float, L: float, t_lo: float, t_hi: float):
    """Bound on |d/dk (k (x0 + L) - E_k t)| over the packet window and [t_lo, t_hi]."""
    X = L + spec.x0
    vs = [relativistic_kinematics(k, mass).velocity for k in spec.k_window]
    return max(abs(X - v * t) for v in vs for t in (t_lo, t_hi)) + 1.0


def prepanel_count(spec: WavePacketSpec, mass: float, L: float, t_lo: float,
                   t_hi: float) -> float:
    """Phase pre-panels of the times [t_lo, t_hi] at a detector at L, before
    phase_panels clips them to a third of the panel limit, so a window above
    that limit can still converge."""
    return _quadrature.phase_panel_count(*spec.k_window,
                                         _phase_rate(spec, mass, L, t_lo, t_hi))


def _initial_edges(spec: WavePacketSpec, mass: float, L: float, t_lo: float, t_hi: float):
    return _quadrature.phase_panels(*spec.k_window, _phase_rate(spec, mass, L, t_lo, t_hi))


def _integrand(smooth, mass: float, L: float, times: np.ndarray):
    """k -> the (k.size, T + 1) array, built in place, of g e^{ikL - iE_k t} at
    each of the T ``times``, then |g|, g = smooth(k): every arrival integrand."""
    def f(k):
        g = smooth(k)
        out = np.empty((k.size, times.size + 1), dtype=complex)
        kern = out[:, :-1]
        np.exp(np.multiply(relativistic_kinematics(k, mass).energy[:, None], -1j * times,
                           out=kern), out=kern)
        np.multiply((g * np.exp(1j * k * L))[:, None], kern, out=kern)
        out[:, -1] = np.abs(g)
        return out
    return f


def arrival_amplitude(L: float, t: float, spec: WavePacketSpec,
                      profile: PotentialProfile, rel_tol: float = DENSITY_REL_TOL) -> complex:
    """Arrival amplitude A(L, t) at a single detection time, alpha = 1: the
    single-time reference for arrival_density.

    It integrates ``_integrand`` at its one time on panels of its own, |g| too:
    int |g| dk/2pi bounds every |A(L, t)|, and rel_tol is relative to it
    rather than to the amplitude, which is tiny in the tails.
    """
    f = _integrand(_smooth_part(spec, profile, None), profile.mass, L, np.array([t], float))
    quad = _quadrature.adaptive_quad(f, _initial_edges(spec, profile.mass, L, t, t), rel_tol)
    return complex(quad.value[0]) / (2.0 * math.pi)


def _uniform_step(times: np.ndarray) -> float:
    """Step h of a grid whose times all lie within 8 ulp of max|t| of the
    evenly spaced grid between its ends, about the rounding of t itself, as
    np.linspace leaves it; raises PhysicsDomainError on any other grid."""
    n = times.size
    h = (times[-1] - times[0]) / (n - 1)
    dev = np.max(np.abs(times - (times[0] + h * np.arange(n))))
    if not dev <= 8.0 * np.spacing(np.max(np.abs(times))):
        raise PhysicsDomainError(f"non-uniform time grid: a time is {dev:.3g} off linspace")
    return h


def _powers(first: np.ndarray, ratio: np.ndarray, count: int) -> np.ndarray:
    """(count, *first.shape) table first ratio^j, j = 0 .. count - 1, for a
    first row of shape (N,) or (2, N) and ratio (N,): a running product down
    the rows, one multiply per entry. (np.cumprod gives the same table, but
    its complex loop is 5x slower than a row of vector multiplies.)"""
    table = np.empty((count, *first.shape), dtype=complex)
    table[0] = first
    for j in range(1, count):
        np.multiply(table[j - 1], ratio, out=table[j])
    return table


def _grid_pass(mids: np.ndarray, g: np.ndarray, mass: float, L: float, quad,
               times: np.ndarray, h: float):
    """K15 amplitudes and |K15 - G7| error estimates at every time of the grid.

    ``mids`` are the midpoints of the panels the refinement evaluated, and
    ``g`` the integrand without its phase at their nodes, 15 a panel in the
    ``_quadrature.panel_nodes`` layout. Each final panel is found among them
    by exact lookup, so no node is evaluated again: panel_nodes is a fixed
    function of (lo, hi), so a final node is bit-identical to the one its
    round evaluated, and x[:, 7] (_XK[7] = 0) is each panel's exact midpoint,
    a unique key. A final panel missing from ``mids`` is an internal error.

    The uniform grid (step h, from ``_uniform_step``) is read as A blocks of
    B = ceil(sqrt(n)) steps, t_{aB+b} = t_0 + (aB + b) h, and the kernel
    factors over them: e^{-iE t_{aB+b}} = e^{-iE t_{aB}} e^{-iE b h}, so with
    U[node, a] = e^{-iE t_{aB}} and V[node, b] = coeff e^{-iE b h} the sums
    are (U^T V).ravel()[:n], one matrix product. Each block column of V
    interleaves the K15 coefficient and the (K15 - G7) one, so the product's
    even and odd columns give both. Both tables are running products
    (``_powers``) of one exp per node: V[:, b] = coeff w^b, w = e^{-iE h},
    starts from the coefficients, and U[:, a] = e^{-iE t_0} W^a with
    W = e^{-iE B h}; so the pass costs 3N complex exps and N (A + 2B)
    multiplies. Nodes go _KERNEL_CHUNK // (A + 2B) at a time, so U and V
    together hold about 1 MB and no nodes x times table is formed.

    The tables are phased in E - E_c, E_c the midpoint of the node energies:
    the factor e^{-iE_c t} is common to every node, so it multiplies the K15
    sums on the way out and drops out of |K15 - G7|. This keeps the phase
    arguments, and their rounding, to the energy spread times t rather than
    E t, which reaches 1e6 rad on long peak trains.
    """
    B = math.ceil(math.sqrt(times.size))
    A = -(-times.size // B)
    x, wk, wg = _quadrature.panel_nodes(quad.lo, quad.hi)
    order = np.argsort(mids)
    found = order[np.minimum(np.searchsorted(mids[order], x[:, 7]), order.size - 1)]
    if not np.array_equal(mids[found], x[:, 7]):
        raise RuntimeError("internal error: a final panel was never evaluated")
    s = g.reshape(-1, _quadrature.NODES_PER_PANEL)[found] * np.exp(1j * x * L)
    coeff = np.stack([wk * s, (wk - wg) * s]).reshape(2, -1)
    E = relativistic_kinematics(x, mass).energy.ravel()
    E_c = 0.5 * (np.min(E) + np.max(E))
    blocks = np.zeros((A, 2 * B), dtype=complex)
    chunk = max(1, int(_KERNEL_CHUNK // (A + 2 * B)))
    for i in range(0, E.size, chunk):
        e = E[i:i + chunk] - E_c
        UT = _powers(np.exp(-1j * e * times[0]), np.exp(-1j * e * (B * h)), A)
        V = _powers(coeff[:, i:i + chunk], np.exp(-1j * e * h), B)
        blocks += UT @ V.reshape(2 * B, e.size).T
    k15, diff = blocks.reshape(A * B, 2)[:times.size].T
    return k15 * np.exp(-1j * E_c * times), np.abs(diff), [A, B]


def _shared_panel_amplitudes(smooth, spec: WavePacketSpec, mass: float, L: float,
                             times: np.ndarray, h: float, rel_tol: float):
    """Amplitudes on a whole time grid from one adaptively refined panel set.

    The panels are refined, within the panel and round limits of
    ``_quadrature``, on up to 24 representative samples evenly spread over the
    grid and on |g|, the integrand without its phase: int |g| dk bounds every |A|, and
    rel_tol is relative to it, as in arrival_amplitude. The refinement keeps
    g = smooth(k) at every node it evaluates, once each. Then one pass
    (``_grid_pass``) finds the final panels' values among them and evaluates
    K15 and the embedded |K15 - G7| estimate at every time of the grid (step
    h) on the final panels. Every sample must hold
    |K15 - G7| <= rel_tol int |g| dk; a miss raises NumericsError naming the
    worst sample. The reported ``error_estimate`` bounds |A| everywhere: the
    larger of the refinement's summed estimate and the worst per-sample one,
    over 2 pi. int |g| dk = 0 gives an exactly zero grid and a ``no_signal``
    warning.
    """
    edges = _initial_edges(spec, mass, L, float(times[0]), float(times[-1]))
    rep_times = times[np.linspace(0, times.size - 1, min(_N_REP, times.size)).astype(int)]
    # (panel midpoints, g) of every panel batch the refinement evaluates; the
    # midpoints, not the node arrays: holding those too fragments the heap by
    # about 3 KB of RSS per arrival density that a caller keeps
    evaluated = []

    def kept(k):
        evaluated.append((k[7::_quadrature.NODES_PER_PANEL].copy(), smooth(k)))
        return evaluated[-1][1]
    quad = _quadrature.adaptive_quad(_integrand(kept, mass, L, rep_times), edges, rel_tol)
    mids, g = (np.concatenate(a) for a in zip(*evaluated))
    amps, err, time_blocks = _grid_pass(mids, g, mass, L, quad, times, h)
    # an all-zero grid (alpha = 0) has err = tol = 0 and passes
    tol = rel_tol * float(quad.value[-1].real)
    if np.any(err > tol):
        raise NumericsError(
            "quadrature failed to converge on the full time grid",
            diagnostics={"panels": int(quad.lo.size), "refinement_rounds": quad.rounds,
                         "total_error": float(np.max(err)), "tolerance": tol,
                         "worst_time": float(times[np.argmax(err)])})
    if quad.value[-1].real == 0.0:
        warn_regime("no_signal", "int |g| dk = 0 on the packet window (|A_k| underflows "
                    "or alpha = 0 there): the density is exactly 0")
    error = max(quad.error_estimate, float(np.max(err))) / (2.0 * math.pi)
    diagnostics = {"panels": int(quad.lo.size), "refinement_rounds": quad.rounds,
                   "error_estimate": error, "time_blocks": time_blocks}
    return amps / (2.0 * math.pi), diagnostics


def arrival_density(times, spec: WavePacketSpec, profile: PotentialProfile,
                    detector: DetectorSpec, rel_tol: float = DENSITY_REL_TOL,
                    detection_amplitude=None) -> ArrivalDistribution:
    """Sample P(L, t) = |A(L, t)|^2 on a time grid that ``_uniform_step`` accepts.

    One refined panel set is shared by every grid point. ``detection_amplitude``,
    a callable of a momentum array, substitutes a model A_k (e.g. a Lorentzian
    resonance) for the profile's, which then only supplies geometry. The grid
    should span the expected peak by +-10 sigma_x/v_p; a narrower grid is
    accepted with a structured warning.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size < 4 or np.any(np.diff(times) <= 0):
        raise PhysicsDomainError("need an increasing time grid with >= 4 points")
    h = _uniform_step(times)
    detector.check_far_field(profile)
    mass = profile.mass
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
    amps, diagnostics = _shared_panel_amplitudes(smooth, spec, mass, L, times, h, rel_tol)
    density = np.abs(amps) ** 2
    meta = {
        "packet": spec.to_dict(),
        "profile": profile.to_dict(),
        "detector": {"position": L},
        "quadrature": diagnostics,
        "t_peak_estimate": t_bar,
    }
    return ArrivalDistribution(times=times, density=density, metadata=meta)


def total_transmission(spec: WavePacketSpec, profile: PotentialProfile,
                       alpha=None, rel_tol: float = 1e-10) -> float:
    """int dk/(2pi) alpha(k) |A_k|^2 |u~0(k - p)|^2 (no time integral)."""
    def f(k):
        a = 1.0 if alpha is None else np.asarray(alpha(k), dtype=float)
        return (a * np.abs(detection_amplitude_scan(profile, k)) ** 2
                * spec.envelope(k) ** 2)[:, None]

    lo, hi = spec.k_window
    quad = _quadrature.adaptive_quad(f, np.linspace(lo, hi, 65), rel_tol)
    return float(quad.value[0].real) / (2.0 * math.pi)
