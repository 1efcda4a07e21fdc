"""Wave packets, detectors, and the arrival density P(L, t).

The arrival amplitude is the oscillatory momentum integral

    A(L, t) = int_0^inf dk/(2pi) sqrt(alpha(k) v_k) A_k psi0(k) e^{ikL - iE_k t}

evaluated over the packet window [max(0, p - 8 sigma_p), p + 8 sigma_p] with
adaptive Gauss-Kronrod panels. A time grid shares one refined panel set, and
so one evaluation of the detection amplitude A_k per node, across all samples:
the refinement keeps A_k at every node it evaluates, and the final pass reads
them by evaluation order. The grid must be uniform, and the kernel e^{-iE_k t}
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

import functools
import itertools
import json
import math
import os
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import _quadrature
from .errors import NumericsError, PhysicsDomainError, warn_regime
from .kinematics import relativistic_kinematics
from .scattering import (PotentialProfile, barrier_functions, detection_amplitude_scan,
                         detection_phase_derivative, tunneling_window)

_KWINDOW_SIGMAS = 8.0
_ENVELOPE_FLOOR = 1e-18  # u0(x)/u0(0) beyond WavePacketSpec.reach
MIN_L_OVER_D = 10.0  # far-field bound: a detector at L >= 10 d
GRID_SPAN_SIGMAS = 10.0  # recommended half-span of a time grid, in sigma_x/v_p
DENSITY_REL_TOL = 1e-8  # default rel_tol of the arrival amplitude and density
_WARN_L_OVER_D = 50.0
_KERNEL_CHUNK = 2 ** 16  # bound on nodes x (A + 2B) kernel-table entries (1 MB) held at once
_N_REP = 24  # representative times a time-grid refinement integrates
_CSV_BLOCK = 512  # CSV rows formatted per write
_TABLE_PHASE_STEP = math.pi / 32.0  # round-trip phase between the k table's points
_NEWTON_STEPS = 3  # at most, after the table's interpolation


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


def _cubic_hermite(x: np.ndarray, xt: np.ndarray, yt: np.ndarray, dt: np.ndarray):
    """(y, i): the cubic Hermite interpolant of the values yt and slopes dt at
    the increasing points xt, at x, and the index i of each x's table interval
    [xt[i], xt[i + 1]] (the first or last interval for an x outside xt)."""
    i = np.clip(np.searchsorted(xt, x) - 1, 0, xt.size - 2)
    h = xt[i + 1] - xt[i]
    s = (x - xt[i]) / h
    h00 = (1 + 2 * s) * (1 - s) ** 2
    h10 = s * (1 - s) ** 2
    h01 = s * s * (3 - 2 * s)
    h11 = s * s * (s - 1)
    return h00 * yt[i] + h10 * h * dt[i] + h01 * yt[i + 1] + h11 * h * dt[i + 1], i


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
        return _cubic_hermite(np.clip(k, kt[0], kt[-1]), kt, at, _pchip_slopes(kt, at))[0]

    def check_far_field(self, profile: PotentialProfile) -> None:
        d = profile.width
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
    """Call ``write(f)`` on the sibling ``<path>.part``, open for bytes, then move it
    over ``path``; if ``write`` raises, the part file is removed and ``path`` kept."""
    part = f"{path}.part"
    try:
        with open(part, "wb") as f:
            write(f)
        os.replace(part, path)
    except BaseException:
        Path(part).unlink(missing_ok=True)
        raise


_P10 = 290  # _g17_tables holds 10^j for |j| <= _P10, all normal doubles
_G17_RANGE = 1e270  # |x| the vectorized %.17g rounds: 10^(16 - e) stays in the table
_G17_TIE = 2.0 ** -30  # fractions this near 1/2 go to Python's correctly rounded dtoa
_G17_SLOT = 48  # bytes of a field: "-0.000", digits 0-16 each with a "." slot, "e+016", separator
_G17_SEP = 45  # the byte of a field that takes its separator


@functools.cache
def _g17_tables():
    """Built on first use. Indexed by j + _P10: 10^j = hi + lo from exact integers,
    hi's split, and 34 c for the layout class c (e + 4 if -4 <= e < 17, else 21
    or 22 for 2 or 3 exponent digits). By n < 10^4: 16 - the trailing zeros of
    "%04d", the last nonzero digit of N when n is its lowest group; 0 for n = 0.
    One word table: "d.d.d.d." of "%04d" by n < 10^4, then "-0.000d." by d < 10,
    then "e+016" by j + _P10. By the key (17 c + last nonzero digit) 2 + sign:
    the six words of a field's keep-mask."""
    hi, lo = np.empty(2 * _P10 + 1), np.empty(2 * _P10 + 1)
    for i, j in enumerate(range(-_P10, _P10 + 1)):
        a, b = (10 ** j, 1) if j >= 0 else (1, 10 ** -j)
        num, den = (a / b).as_integer_ratio()
        hi[i], lo[i] = a / b, (a * den - num * b) / (b * den)
    e, n, d = np.arange(-_P10, _P10 + 1), np.arange(10000), np.arange(10)
    cls = np.where((e >= -4) & (e < 17), e + 4, np.where(np.abs(e) < 100, 21, 22))
    quads = np.full((n.size, 8), 46)
    quads[:, ::2] = n[:, None] // [1000, 100, 10, 1] % 10 + 48
    lead = np.c_[np.tile(np.frombuffer(b"-0.000", np.uint8), (10, 1)), d + 48, d * 0 + 46]
    exps = np.c_[e * 0 + 101, np.where(e < 0, 45, 43),
                 np.abs(e)[:, None] // [100, 10, 1] % 10 + 48, np.zeros((e.size, 3), int)]
    masks = bytearray(23 * 17 * 2 * _G17_SLOT)  # digit j at 6 + 2j, its "." at 7 + 2j
    for key, (c, last, sign) in enumerate(itertools.product(range(23), range(17), range(2))):
        x, digits = c - 4, list(range(6, 7 + 2 * last, 2))
        if c >= 21:
            keep = digits + [7] * (last > 0) + [40, 41] + [42] * (c == 22) + [43, 44]
        elif x >= 0:
            keep = list(range(6, 7 + 2 * max(x, last), 2)) + [7 + 2 * x] * (last > x)
        else:
            keep = list(range(1, 2 - x)) + digits
        for byte in [0] * sign + keep:
            masks[key * _G17_SLOT + byte] = 255
    words = np.concatenate([quads, lead, exps]).astype(np.uint8).view(np.uint64).ravel()
    last16 = np.where(n > 0, 16 - sum(n % 10 ** j == 0 for j in (1, 2, 3)), 0)
    return (hi, lo, *_split(hi), 34 * cls, last16,
            words, np.frombuffer(masks, np.uint64).reshape(-1, _G17_SLOT // 8))


def _split(v):
    """Veltkamp's split v = h + l, exact, h and l of at most 26 bits each."""
    t = 134217729.0 * v
    h = t - (t - v)
    return h, v - h


def _g17_fields(x: np.ndarray) -> np.ndarray:
    """``'%.17g' % v`` of each float64 ``v`` as a NUL-padded field of _G17_SLOT
    bytes, six uint64 words, with byte _G17_SEP left NUL for a separator.

    With 10^e <= |x| < 10^(e+1), exact against the table, the digits are
    N = round(|x| 10^(16 - e)) from a double-double (Dekker) product. The field
    is the template "-0.000" d0 "." d1 "." ... d16 "." "e+016" from the word
    table, ANDed with the keep-mask of its layout class, last nonzero digit and
    sign. Python formats the rest: non-finite values, |x| outside
    [1/_G17_RANGE, _G17_RANGE), near-ties."""
    hi, lo, hih, hil, base, last16, words, masks = _g17_tables()
    shape, x = x.shape, x.ravel()
    a = np.abs(x)
    fast = (a >= 1.0 / _G17_RANGE) & (a < _G17_RANGE)
    a = np.where(fast, a, 1.0)
    i = np.floor(np.log10(a)).astype(np.intp) + _P10  # e + _P10, maybe 1 off
    h, l = hi[i], lo[i]
    i -= (a < h) | (a == h) & (l > 0.0)
    h, l = hi[i + 1], lo[i + 1]
    i += (a > h) | (a == h) & (l <= 0.0)
    k = 2 * _P10 + 16 - i  # 16 - e + _P10
    ah, al = _split(a)
    h, hh, hl, l = hi[k], hih[k], hil[k], lo[k]
    p = a * h  # |x| 10^(16 - e) = p + r
    r = ((ah * hh - p) + ah * hl + al * hh) + al * hl + a * l
    fast &= np.abs(r - np.floor(r) - 0.5) >= _G17_TIE
    # zero prints as 0 (i is _P10 there); the other values not fast are overwritten
    n = np.where(fast, p.astype(np.int64) + np.floor(r + 0.5).astype(np.int64), 0)
    i += n == 10 ** 17  # N = 10^17 carries into e
    n[n == 10 ** 17] = 10 ** 16
    w = np.empty((x.size, _G17_SLOT // 8), np.intp)  # rows of the word table
    for j in range(4, 0, -1):  # N's 4-digit groups
        q = n // 10 ** 4
        np.subtract(n, q * 10 ** 4, out=w[:, j])
        n = q
    w[:, 0], w[:, 5] = n + 10 ** 4, i + (10 ** 4 + 10)
    last = last16[w[:, 4]]  # the last nonzero digit; 0 where the lowest group is 0
    z = np.flatnonzero(last == 0)
    if z.size:
        last[z] = np.maximum(last16[w[z, 1:4]] - [12, 8, 4], 0).max(axis=1)
    out = np.take(words, w)
    out &= np.take(masks, base[i] + 2 * last + np.signbit(x), axis=0)
    slow = np.flatnonzero(~fast & (x != 0.0))
    if slow.size:
        text = b"".join((b"%.17g" % v).ljust(_G17_SLOT, b"\0") for v in x[slow].tolist())
        out[slow] = np.frombuffer(text, np.uint64).reshape(-1, _G17_SLOT // 8)
    return out.reshape(*shape, _G17_SLOT // 8)


def _csv_rows(cols) -> bytes:
    """Equal-length columns as CSV rows. Each field has a slot of whole uint64
    words in one row buffer: a number's _G17_SLOT bytes, or a str's UTF-8 bytes
    NUL-padded, with the separator in a NUL byte after the text. The rows are
    joined by deleting the NULs."""
    num = [j for j, c in enumerate(cols) if c.dtype.kind != "U"]
    text = {j: np.char.encode(c, "utf-8") for j, c in enumerate(cols) if j not in num}
    width = [_G17_SLOT if j in num else text[j].itemsize // 8 * 8 + 8 for j in range(len(cols))]
    start = [0, *itertools.accumulate(width)]
    if num:
        x = np.stack([cols[j] for j in num], axis=1).astype(np.float64)
        fields = _g17_fields(x).view(np.uint8).reshape(len(x), _G17_SLOT * len(num))
    if not text:
        buf = fields
    else:
        buf = np.zeros((cols[0].size, start[-1]), np.uint8)
        for m, j in enumerate(num):
            buf[:, start[j]:start[j + 1]] = fields[:, m * _G17_SLOT:(m + 1) * _G17_SLOT]
        for j, b in text.items():
            buf[:, start[j]:start[j] + b.itemsize] = b.view(np.uint8).reshape(b.size, b.itemsize)
    sep = [start[j] + (_G17_SEP if j in num else width[j] - 1) for j in range(len(cols))]
    buf[:, sep[:-1]], buf[:, sep[-1]] = ord(","), ord("\n")
    return buf.tobytes().translate(None, b"\0")


def _write_csv(path, header: list[str], blocks) -> None:
    """Write ``blocks``, each a sequence of equal-length columns, as rows under
    ``header``: numbers as ``'%.17g' % v`` (int columns through float64), str
    columns verbatim (a NUL in a str is dropped). A scan passes a generator of
    blocks, so it never holds more than one. Rows are formatted and written
    _CSV_BLOCK at a time, each block one row buffer of 48-byte number
    templates and NUL-padded str slots (``_csv_rows``) with its NULs deleted."""
    def write(f):
        f.write((",".join(header) + "\n").encode("utf-8"))
        for block in blocks:
            cols = [np.asarray(c) for c in block]
            n = cols[0].size if cols else 0
            for i in range(0, n, _CSV_BLOCK):
                f.write(_csv_rows([c[i:i + _CSV_BLOCK] for c in cols]))
    _write_atomic(path, write)


def _json_default(obj):
    if isinstance(obj, (np.generic, np.ndarray)):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _write_json(path, obj) -> None:
    """Write obj as indented JSON with sorted keys; numpy values as Python ones."""
    text = json.dumps(obj, indent=2, sort_keys=True, default=_json_default) + "\n"
    _write_atomic(path, lambda f: f.write(text.encode("utf-8")))


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


def _grid_pass(g: np.ndarray, mass: float, L: float, quad, times: np.ndarray, h: float):
    """K15 amplitudes and |K15 - G7| error estimates at every time of the grid.

    ``g`` is the integrand without its phase at the nodes of every panel the
    refinement evaluated, in evaluation order, 15 a panel in the
    ``_quadrature.panel_nodes`` layout. Final panel i takes the values of
    panel ``quad.evaluated_at[i]``, so no node is evaluated again.

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
    s = g.reshape(-1, _quadrature.NODES_PER_PANEL)[quad.evaluated_at] * np.exp(1j * x * L)
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


def arrival_density(times, spec: WavePacketSpec, profile: PotentialProfile,
                    detector: DetectorSpec, rel_tol: float = DENSITY_REL_TOL,
                    detection_amplitude=None) -> ArrivalDistribution:
    """Sample P(L, t) = |A(L, t)|^2 on a time grid that ``_uniform_step`` accepts.

    ``detection_amplitude``, a callable of a momentum array, substitutes a
    model A_k (e.g. a Lorentzian resonance) for the profile's, which then only
    supplies geometry. The grid should span the expected peak by +-10
    sigma_x/v_p; a narrower grid is accepted with a structured warning.

    One adaptively refined panel set is shared by every grid point. The
    panels are refined, within the panel and round limits of ``_quadrature``,
    on up to 24 representative samples evenly spread over the grid and on
    |g|, the integrand without its phase: int |g| dk bounds every |A|, and
    rel_tol is relative to it, as in arrival_amplitude. The refinement keeps
    g = smooth(k) of each panel batch it evaluates, once each. Then one pass
    (``_grid_pass``) takes the final panels' values from them by evaluation
    order and evaluates K15 and the embedded |K15 - G7| estimate at every time
    of the grid on the final panels. Every sample must hold |K15 - G7| <=
    rel_tol int |g| dk; a miss raises NumericsError naming the worst sample.
    The reported ``error_estimate`` bounds |A| everywhere: the larger of the
    refinement's summed estimate and the worst per-sample one, over 2 pi.
    int |g| dk = 0 gives an exactly zero grid and a ``no_signal`` warning.
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
    edges = _initial_edges(spec, mass, L, float(times[0]), float(times[-1]))
    rep_times = times[np.linspace(0, times.size - 1, min(_N_REP, times.size)).astype(int)]
    evaluated = []  # g of every panel batch the refinement evaluates

    def kept(k):
        evaluated.append(smooth(k))
        return evaluated[-1]
    quad = _quadrature.adaptive_quad(_integrand(kept, mass, L, rep_times), edges, rel_tol)
    amps, err, time_blocks = _grid_pass(np.concatenate(evaluated), mass, L, quad, times, h)
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
    density = np.abs(amps / (2.0 * math.pi)) ** 2
    meta = {
        "packet": spec.to_dict(),
        "profile": profile.to_dict(),
        "detector": {"position": L},
        "quadrature": {"panels": int(quad.lo.size), "refinement_rounds": quad.rounds,
                       "error_estimate": error, "time_blocks": time_blocks},
        "t_peak_estimate": t_bar,
    }
    return ArrivalDistribution(times=times, density=density, metadata=meta)


def _round_trip(k: np.ndarray, v0: float, a: float, r: float, m: float):
    """(psi, psi', log q) of the symmetric double (V0, a, r) at an array of
    momenta in its tunneling window.

    psi = 2kr + 2 arctan(eta tanh(lambda a)) is the round-trip phase whose
    odd multiples of pi find_resonances solves for, and psi' = 2r + 2 v tau
    its derivative, tau the single-barrier tunneling time. q = (1 - R)/(1 + R)
    = 1/(1 + 2 rho^2 sinh^2(lambda a)), R the single-barrier reflection
    probability, so that |T|^2 = q^2/(q^2 + (1 - q^2) cos^2(psi/2)) exactly.
    e_k of barrier_functions is taken as k (m + |E - V0|)/(lambda (E + m)),
    its value without the cancellations of E - m and m - |E - V0|, so it
    neither rounds away nor underflows at small k; tau is written in e
    rather than eta and rho, and q through sinh(lambda a) e^{-lambda a}, so
    nothing overflows. That psi equals find_resonances' only in exact
    arithmetic: the two differ by as much as 1e6 ulp below 5% and above
    95% of the window edge, and by at most 64 ulp between.
    """
    bf = barrier_functions(k, v0, m)
    E, lam = bf.energy, bf.lam
    gap = E - v0
    e = k * (m + np.abs(gap)) / (lam * (E + m))
    ee = e * e
    x = lam * a
    th = np.tanh(x)
    num = ((1.0 - ee) * gap * a * (1.0 - th * th) / lam
           + (1.0 + ee) * m * (1.0 / (k * k) + 1.0 / (lam * lam)) * th)
    dpsi = 2.0 * r + 4.0 * k * e * num / (E * (4.0 * ee + (ee - 1.0) ** 2 * th * th))
    decay = np.exp(-2.0 * x)
    sh = 0.5 * (1.0 - decay)  # sinh(x) e^{-x}
    log_q = -2.0 * x - np.log(decay + 0.5 * ((ee + 1.0) * sh) ** 2 / ee)
    return 2.0 * k * r + 2.0 * np.arctan(0.5 * (e - 1.0 / e) * th), dpsi, log_q


def _round_trip_quadrature(spec: WavePacketSpec, v0: float, a: float, r: float, m: float,
                           rel_tol: float):
    """(x -> (weight, k), edges) of total_transmission for a symmetric double
    whose packet window lies in its tunneling window: at each node x, the
    factor of alpha(k) u~0(k - p)^2 in the integrand and the momentum k.

    A_k = T there (w = 0), and |T|^2 = q^2/(q^2 cos^2(dpsi/2) + sin^2(dpsi/2))
    with dpsi = psi - (2n + 1) pi the round-trip phase's offset from the
    nearest resonance. The variable is k, as on the k path, but the piece of
    k within delta of a resonance narrower than that (q_j < delta) takes the
    variable theta, tan(dpsi/2) = q_j tan(theta), laid linearly onto the
    piece, for which exactly

        |T|^2 dpsi = 2 q_j t^2/(t^2 cos^2 theta + sin^2 theta) dtheta,  t = q/q_j:

    with q_j = q at the resonance the peak is flat in theta however narrow
    it is. The rest, alpha u~0^2/psi', is smooth, so k is needed only there:
    it comes from psi by cubic Hermite interpolation in a table of psi(k),
    and Newton steps where that misses, so no k within ulp of a resonance is
    ever needed. Elsewhere the nodes are k itself: a k recovered from psi
    carries the rounding of psi, ulp(psi)/psi', which would swamp the
    envelope of a narrow packet.

    delta = sigma_p psi'/4 (at most pi/4) keeps the envelope nearly
    constant across a substituted piece, which maps its offsets beyond
    about q to within q/dpsi of theta = +-pi/2, below what its nodes resolve
    once q is small; so the far wings, where the envelope, up to e^32 times
    larger across the window, may peak, are integrated over k. A piece that
    the window cuts short of its resonance takes for q_j the largest of q at
    its ends and at the cut and of |sin(dpsi/2)| at the cut, so t stays
    below about 1 (q falls to 0 at k -> 0) and the cut maps to |theta| >=
    pi/4. The initial panels halve toward theta = +-pi/2 on a substituted
    piece, down to rel_tol/100, beyond which it carries less than that share
    of its weight; elsewhere they double away from each resonance from delta
    and split the rest every 2 sigma_p.
    """
    lo, hi = spec.k_window
    # psi' = 2(r + v tau) is about 2(r + a), but v tau can exceed a several times
    kt = np.linspace(lo, hi, math.ceil((hi - lo) * 2.0 * (r + a) / _TABLE_PHASE_STEP) + 2)
    pt, dpt, lqt = _round_trip(kt, v0, a, r, m)
    denser = math.ceil(kt.size * float(np.max(np.diff(pt))) / _TABLE_PHASE_STEP)
    if denser > kt.size:
        kt = np.linspace(lo, hi, denser)
        pt, dpt, lqt = _round_trip(kt, v0, a, r, m)
    tol_k = max(rel_tol * spec.sigma_p / 1024.0, 2.0 * float(np.spacing(hi)))  # Newton's stop
    dkt = 1.0 / dpt  # dk/dpsi, the slopes of k in the table
    delta = min(math.pi / 4.0, 0.25 * spec.sigma_p * float(np.min(dpt)))
    res = (2.0 * np.arange(math.floor(pt[0] / (2.0 * math.pi)) - 1,
                           math.ceil(pt[-1] / (2.0 * math.pi)) + 1) + 1.0) * math.pi
    start, stop = np.clip(res - delta, pt[0], pt[-1]), np.clip(res + delta, pt[0], pt[-1])
    near = np.clip(res, start, stop)
    # q_j is free, so the table's q interpolated will do; at least the
    # smallest normal double, so log q_j is finite however opaque the double
    qj = np.max([*np.interp(np.stack([start, stop, near]), pt, np.exp(lqt)),
                 np.abs(np.sin(0.5 * (near - res)))], axis=0, initial=np.finfo(float).tiny)
    ends = np.interp(np.concatenate([start, stop]), pt, kt).reshape(2, -1)
    doubling = delta * 2.0 ** np.arange(math.ceil(math.log2(math.pi / delta)))
    offsets = np.concatenate([[0.0], doubling, -doubling])
    k_edges = np.concatenate([np.interp(np.add.outer(res, offsets).ravel(), pt, kt),
                              np.arange(lo, hi, 2.0 * spec.sigma_p)])
    sub = (qj < delta) & (ends[1] > ends[0])
    res, qj, (k_a, k_b) = res[sub], qj[sub], ends[:, sub]
    log_qj = np.log(qj)
    half = 0.5 * (_round_trip(np.concatenate([k_a, k_b]), v0, a, r, m)[0] - np.tile(res, 2))
    theta_a, theta_b = np.arctan2(np.sin(half), np.tile(qj, 2) * np.cos(half)).reshape(2, -1)
    slope = (theta_b - theta_a) / (k_b - k_a)  # dtheta/dk on each substituted piece
    wing = math.pi / 2.0 - math.pi / 4.0 * 0.5 ** np.arange(
        math.ceil(math.log2(math.pi / 2.0 / (0.01 * rel_tol))))
    theta = np.concatenate([-wing, [0.0], wing])[None, :]
    keep = (theta > theta_a[:, None]) & (theta < theta_b[:, None])
    # an infinite last piece, so every k has a substituted piece at or above it
    k_a, k_b = np.append(k_a, np.inf), np.append(k_b, np.inf)
    j = np.searchsorted(k_b, k_edges)
    edges = np.sort(np.concatenate([[lo, hi], k_a[:-1], k_b[:-1],
                                    (k_a[:-1, None] + (theta - theta_a[:, None])
                                     / slope[:, None])[keep],
                                    k_edges[k_edges <= k_a[j]]]))
    edges = edges[np.append(True, np.diff(edges) > 0.0)]  # np.unique would import numpy.ma

    def f(x):
        j = np.searchsorted(k_b, x)
        on = x > k_a[j]  # the nodes of substituted pieces
        j = j[on]
        theta = theta_a[j] + (x[on] - k_a[j]) * slope[j]
        s, c = np.sin(theta), np.cos(theta)
        psi = res[j] + 2.0 * np.arctan2(qj[j] * s, c)
        # k where the round-trip phase is psi, within the pair of table points around it
        k_on, i = _cubic_hermite(psi, pt, kt, dkt)
        k_lo, k_hi = kt[i], kt[i + 1]
        k = x.copy()
        k[on] = np.clip(k_on, k_lo, k_hi)
        p, dpsi, lq = _round_trip(k, v0, a, r, m)
        # Newton steps, within the pair of table points, on the substituted
        # nodes that the interpolation leaves further than tol_k from the root
        ks, ps, ds, ls = k[on], p[on], dpsi[on], lq[on]
        for _ in range(_NEWTON_STEPS):
            step = (ps - psi) / ds
            off = np.abs(step) > tol_k
            if not off.any():
                break
            ks[off] = np.clip(ks[off] - step[off], k_lo[off], k_hi[off])
            ps[off], ds[off], ls[off] = _round_trip(ks[off], v0, a, r, m)
        k[on] = ks
        t2 = np.exp(2.0 * (ls - log_qj[j]))
        weight = np.empty_like(x)
        weight[on] = 2.0 * qj[j] * t2 / (t2 * c * c + s * s) * slope[j] / ds
        q2, s, c = np.exp(2.0 * lq[~on]), np.sin(0.5 * p[~on]), np.cos(0.5 * p[~on])
        weight[~on] = q2 / (q2 * s * s + c * c)
        return weight, k
    return f, edges


def total_transmission(spec: WavePacketSpec, profile: PotentialProfile,
                       alpha=None, rel_tol: float = 1e-10) -> float:
    """int dk/(2pi) alpha(k) |A_k|^2 |u~0(k - p)|^2 (no time integral).

    On a symmetric double barrier whose packet window lies in its tunneling
    window, A_k = T has a closed form in the round-trip phase, which is the
    variable near each narrow resonance (``_round_trip_quadrature``), so
    opaque doubles converge too. Every other profile and window integrates
    the transfer-matrix A_k over k, from 64 panels.
    """
    lo, hi = spec.k_window
    dbl = profile.as_symmetric_double()
    if dbl is not None and hi < tunneling_window(dbl[0], profile.mass)[1]:
        weight_at, edges = _round_trip_quadrature(spec, *dbl, profile.mass, rel_tol)
    else:
        def weight_at(k):
            return np.abs(detection_amplitude_scan(profile, k)) ** 2, k
        edges = np.linspace(lo, hi, 65)

    def f(x):
        weight, k = weight_at(x)
        a = 1.0 if alpha is None else np.asarray(alpha(k), dtype=float)
        return (weight * a * spec.envelope(k) ** 2)[:, None]
    quad = _quadrature.adaptive_quad(f, edges, rel_tol)
    return float(quad.value[0].real) / (2.0 * math.pi)
