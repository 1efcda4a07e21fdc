"""Property tests: erfc identities, transfer-matrix unitarity and reciprocity,
closed forms against the transfer-matrix path, and CSV fields against
Python's '%.17g'.

Examples are derandomized, so every run draws the same cases.
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tunnelkit import PotentialProfile, double_barrier_T, square_barrier_amplitudes
from tunnelkit.scattering import _transfer_TR
from tunnelkit.wavepacket import _CSV_BLOCK, _csv_rows, _write_csv

from _helpers import _erfc

M = 1.0
_PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=40)

disk20 = st.complex_numbers(max_magnitude=20.0, allow_nan=False, allow_infinity=False)
heights = st.floats(0.0, 0.95)
barrier_heights = st.floats(0.05, 0.95)
widths = st.floats(0.1, 30.0)
segments = st.lists(st.tuples(heights, widths), min_size=1, max_size=4)


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


def _percent_rows(cols) -> str:
    """Rows of columns through Python: '%.17g' for numbers, '%s' for str."""
    cols = [np.asarray(c) for c in cols]
    line = ",".join("%s" if c.dtype.kind == "U" else "%.17g" for c in cols) + "\n"
    return "".join(line % row for row in zip(*(c.tolist() for c in cols)))


def _csv_text(cols) -> str:
    return _csv_rows([np.asarray(c) for c in cols]).decode("utf-8")


@_PROPERTY
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                min_size=1, max_size=20))
def test_csv_numbers_are_percent_17g(values):
    assert _csv_text([values]) == _percent_rows([values])


_FIELD_FLOATS = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True) \
    | st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -2.225073858507201e-308])


@settings(_PROPERTY, max_examples=200)
@given(st.data())
def test_csv_rows_of_several_columns_are_percent_17g(data):
    # separators and newlines: 1-6 float columns and maybe a str column
    # anywhere among them, last included
    n_rows = data.draw(st.integers(0, 8))
    rows = st.lists(_FIELD_FLOATS, min_size=n_rows, max_size=n_rows)
    cols = [np.array(data.draw(rows), dtype=np.float64) for _ in range(data.draw(st.integers(1, 6)))]
    if data.draw(st.booleans()):
        labels = st.lists(st.text(st.characters(exclude_characters="\0"), max_size=30),
                          min_size=n_rows, max_size=n_rows)
        cols.insert(data.draw(st.integers(0, len(cols))), np.array(data.draw(labels), dtype=str))
    assert _csv_text(cols) == _percent_rows(cols)


@pytest.mark.parametrize("text_at", ["first", "last"])
@pytest.mark.parametrize("n_rows", [_CSV_BLOCK - 1, _CSV_BLOCK, _CSV_BLOCK + 1, 0])
def test_write_csv_across_block_edges(tmp_path, n_rows, text_at):
    # rows go out _CSV_BLOCK at a time; the file is the header and every row
    # of '%.17g' and '%s' fields, byte for byte
    rng = np.random.default_rng(n_rows)
    cols = [rng.integers(0, 2 ** 64, n_rows, dtype=np.uint64).view(np.float64),
            rng.lognormal(0.0, 30.0, n_rows), np.arange(n_rows)]
    labels = np.array([f"row {j}, ü" for j in range(n_rows)], dtype=str)
    cols.insert(0 if text_at == "first" else len(cols), labels)
    header = ["a", "b", "c", "d"]
    _write_csv(tmp_path / "t.csv", header, [cols])
    want = ",".join(header) + "\n" + _percent_rows(cols)
    assert (tmp_path / "t.csv").read_bytes() == want.encode("utf-8")


def _exact_ties() -> list[float]:
    """Doubles halfway between two 17-digit decimals: x = odd / 2^(j+1) with
    odd 5^j in [2e16, 2e17) and odd < 2^53, so x 10^j = odd 5^j / 2 exactly."""
    rng = np.random.default_rng(1)
    ties = [123456789012345.125]
    for j in range(2, 23):
        lo, hi = -(-2 * 10 ** 16 // 5 ** j), 2 * 10 ** 17 // 5 ** j
        ties += [int(odd) / 2 ** (j + 1) for odd in rng.integers(lo, hi, 20) | 1]
    return ties


_POWERS = np.array([float(f"1e{k}") for k in range(-308, 309)])


def test_csv_numbers_match_percent_17g_on_a_sweep():
    bits = np.random.default_rng(0).integers(0, 2 ** 64, 100_000, dtype=np.uint64)
    switch = [1e-5, 1e-4, np.nextafter(1e-4, 0.0), 1e16, 1e17, np.nextafter(1e17, 0.0),
              99999999999999999.0]
    extremes = [5e-324, np.finfo(float).max, 0.0, -0.0, math.nan, math.inf, -math.inf]
    values = np.concatenate([bits.view(np.float64), _POWERS, np.nextafter(_POWERS, 0.0),
                             np.nextafter(_POWERS, math.inf), switch, _exact_ties(), extremes])
    values = np.concatenate([values, -values])
    assert _csv_text([values]) == _percent_rows([values])


@pytest.mark.parametrize("shift", [-0.5, 0.5])
def test_csv_exponent_is_exact_when_log10_is_a_decade_off(monkeypatch, shift):
    # the decade estimate floor(log10 |x|) is corrected against the table of
    # powers of ten, so an estimate one decade off either way changes nothing
    values = np.concatenate([_POWERS, np.nextafter(_POWERS, 0.0), np.nextafter(_POWERS, math.inf),
                             np.random.default_rng(2).lognormal(0.0, 50.0, 2000)])
    log10 = np.log10
    monkeypatch.setattr(np, "log10", lambda v: log10(v) + shift)
    assert _csv_text([values]) == _percent_rows([values])


def test_csv_int_str_and_empty_columns():
    ints = np.array([0, 7, -12, 2 ** 53, 2 ** 53 + 1, -(2 ** 62) - 1, 2 ** 63 - 1])
    labels = np.array(["t0", "", "gamma_fit", "ü", "a label longer than twenty-four bytes",
                       "r2", "x,y"])
    # as uint64 the negative ints wrap to values near 2^64
    cols = [labels, ints, ints.astype(np.uint64), np.linspace(0.0, 1.0, ints.size)]
    assert _csv_text(cols) == _percent_rows(cols)
    assert _csv_text([np.arange(3)]) == "0\n1\n2\n"
    assert _csv_text([np.array([]), np.array([], dtype=str)]) == ""
