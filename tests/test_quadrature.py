"""The adaptive Gauss-Kronrod routine that every momentum integral uses."""

from __future__ import annotations

import math

import numpy as np
import pytest

from tunnelkit import NumericsError
from tunnelkit import _quadrature
from tunnelkit._quadrature import adaptive_quad, phase_panels

OMEGAS = (1.0, 10.0, 100.0, 1e3)


def _wave(omegas):
    """x -> e^{i omega x}, one column per omega."""
    w = np.asarray(omegas, dtype=float)
    return lambda x: np.exp(1j * np.outer(x, w))


def _exact(omega):
    return (np.exp(1j * omega) - 1.0) / (1j * omega)


@pytest.mark.parametrize("omega", OMEGAS)
@pytest.mark.parametrize("rel_tol", [1e-6, 1e-10])
def test_oscillatory_integral_holds_to_rel_tol(omega, rel_tol):
    # eight coarse panels: every oscillation beyond them is found by refinement
    quad = adaptive_quad(_wave([omega]), np.linspace(0.0, 1.0, 9), rel_tol)
    assert abs(quad.value[0] - _exact(omega)) <= rel_tol * abs(_exact(omega))
    assert quad.error_estimate <= rel_tol * abs(quad.value[0])


@pytest.mark.parametrize("a, b", [(1.0, 1.0), (1.0, 0.0)])
def test_phase_panels_reject_empty_interval(a, b):
    with pytest.raises(NumericsError, match="empty integration interval"):
        phase_panels(a, b, 10.0)


def test_phase_panels_keep_a_floor_of_32():
    # one radian of phase asks for 2 panels; the packet envelope needs more
    assert phase_panels(0.0, 1.0, 1.0).size == 33


def test_phase_panels_hold_rel_tol_with_few_panels():
    # pi of phase per pre-panel gives a quarter of the pi/4 panels; on a pure
    # phase the one refinement round at 1e-10 bisects them all (640 of 1275)
    edges = phase_panels(0.0, 1.0, 1e3)
    quad = adaptive_quad(_wave([1e3]), edges, 1e-10)
    assert abs(quad.value[0] - _exact(1e3)) <= 1e-10 * abs(_exact(1e3))
    assert quad.error_estimate <= 1e-10 * abs(quad.value[0])
    quarter_pi_panels = math.ceil(1e3 / (math.pi / 4)) + 1
    assert edges.size - 1 < quarter_pi_panels / 3
    assert quad.lo.size < quarter_pi_panels


def test_columns_match_separate_runs():
    # the m-column error budget is relative to the largest column integral
    rel_tol = 1e-10
    edges = np.linspace(0.0, 1.0, 9)
    multi = adaptive_quad(_wave(OMEGAS), edges, rel_tol)
    assert multi.value.shape == (len(OMEGAS),)
    budget = rel_tol * max(abs(_exact(w)) for w in OMEGAS)
    for j, omega in enumerate(OMEGAS):
        single = adaptive_quad(_wave([omega]), edges, rel_tol)
        assert abs(multi.value[j] - single.value[0]) <= 2 * budget
        assert abs(multi.value[j] - _exact(omega)) <= budget


def test_repeated_column_reproduces_one_column_run():
    edges = np.linspace(0.0, 1.0, 9)
    single = adaptive_quad(_wave([100.0]), edges, 1e-10)
    triple = adaptive_quad(_wave([100.0] * 3), edges, 1e-10)
    assert triple.rounds == single.rounds
    np.testing.assert_array_equal(triple.lo, single.lo)
    np.testing.assert_array_equal(triple.hi, single.hi)
    assert triple.value[0] == triple.value[1] == triple.value[2]
    # only the summation order of the panel sums differs
    np.testing.assert_allclose(triple.value, single.value[0], rtol=1e-13, atol=0)


def test_evaluated_at_points_each_final_panel_at_its_evaluation():
    # a narrow peak splits a few panels round after round, so the final
    # panels mix every round's batches out of evaluation order
    evaluated = []

    def peak(x):
        evaluated.append(x.reshape(-1, _quadrature.NODES_PER_PANEL).copy())
        return (1.0 / ((x - 0.3) ** 2 + 1e-6))[:, None] + 0j

    quad = adaptive_quad(peak, np.linspace(0.0, 1.0, 9), 1e-10)
    assert quad.rounds >= 2
    nodes = np.concatenate(evaluated)
    assert np.unique(quad.evaluated_at).size == quad.lo.size
    final = _quadrature.panel_nodes(quad.lo, quad.hi)[0]
    np.testing.assert_array_equal(nodes[quad.evaluated_at], final)


def test_split_panels_tile_the_interval_bit_for_bit(monkeypatch):
    # a narrow peak is bisected once and then quartered round after round.
    # Sorted, the final panels must tile [a, b] with shared edges, bit for
    # bit. [0.1, 0.4] is quartered, and 0.1 + (0.4 - 0.1) != 0.4, so quarter
    # points formed as lo + (hi - lo) j / 4 would leave a gap
    a, b = 0.1, 0.7
    batches = []
    panel_nodes = _quadrature.panel_nodes

    def recording(lo, hi):
        batches.append((lo.copy(), hi.copy()))
        return panel_nodes(lo, hi)

    monkeypatch.setattr(_quadrature, "panel_nodes", recording)
    quad = adaptive_quad(lambda x: (1.0 / ((x - 0.31) ** 2 + 1e-8))[:, None] + 0j,
                         np.array([a, b]), 1e-10)
    assert quad.rounds >= 3
    order = np.argsort(quad.lo)
    lo, hi = quad.lo[order], quad.hi[order]
    assert lo[0] == a and hi[-1] == b
    np.testing.assert_array_equal(lo[1:], hi[:-1])
    evaluated_lo, evaluated_hi = (np.concatenate(e) for e in zip(*batches))
    np.testing.assert_array_equal(evaluated_lo[quad.evaluated_at], quad.lo)
    np.testing.assert_array_equal(evaluated_hi[quad.evaluated_at], quad.hi)
    # batches after the first refinement are quarterings, laid out as the
    # parents' lo, then three rows of quarter points: some parent is inexact
    quartered = [(lo[: lo.size // 4], hi[-(hi.size // 4):]) for lo, hi in batches[2:]]
    assert any((lo + (hi - lo) != hi).any() for lo, hi in quartered)


def test_cancelling_column_uses_absolute_floor():
    # int_0^{2 pi} sin x dx = 0: relative accuracy is meaningless, the
    # 1e-8 sum|K15| floor lets the run converge instead of refining forever
    quad = adaptive_quad(lambda x: np.sin(x)[:, None], np.linspace(0.0, 2 * np.pi, 9), 1e-10)
    assert abs(quad.value[0]) < 1e-12


def test_panel_cap_raises_with_diagnostics(monkeypatch):
    monkeypatch.setattr(_quadrature, "MAX_PANELS", 16)
    with pytest.raises(NumericsError, match="failed to converge") as exc:
        adaptive_quad(_wave([1e3]), np.linspace(0.0, 1.0, 9), 1e-10)
    diag = exc.value.diagnostics
    assert diag["panels"] >= 16
    assert diag["panels"] <= 16  # never above the cap
    assert diag["total_error"] > diag["tolerance"]
    lo, hi, err = diag["worst_panel"]
    assert 0.0 <= lo < hi <= 1.0 and err > 0.0


def test_panel_cap_is_not_overshot(monkeypatch):
    # the cap is checked before each round: a round that would quarter the
    # 64 panels to 256 is not run, so the failing run reports 64, not 256
    monkeypatch.setattr(_quadrature, "MAX_PANELS", 100)
    with pytest.raises(NumericsError, match="failed to converge") as exc:
        adaptive_quad(_wave([1e3]), np.linspace(0.0, 1.0, 9), 1e-10)
    assert 50 < exc.value.diagnostics["panels"] <= 100


def test_round_cap_raises(monkeypatch):
    monkeypatch.setattr(_quadrature, "MAX_ROUNDS", 2)
    with pytest.raises(NumericsError, match="failed to converge") as exc:
        adaptive_quad(_wave([1e3]), np.linspace(0.0, 1.0, 9), 1e-10)
    assert exc.value.diagnostics["refinement_rounds"] == 2


def test_non_finite_integrand_raises_at_once():
    def f(x):
        return np.where(x > 0.5, np.nan, 1.0)[:, None] + 0j

    with pytest.raises(NumericsError, match="not finite") as exc:
        adaptive_quad(f, np.linspace(0.0, 1.0, 9), 1e-10)
    assert exc.value.diagnostics["refinement_rounds"] == 0
    assert exc.value.diagnostics["worst_panel"][0] >= 0.5


@pytest.mark.parametrize("m", [1, 25])
def test_panel_sums_match_weighted_node_sums(m):
    # the stacked product against the explicit sums over weighted node values
    rng = np.random.default_rng(m)
    edges = np.sort(rng.uniform(0.0, 3.0, 358))
    omegas = rng.uniform(0.0, 50.0, m)

    def f(x):
        return (1.0 + x[:, None]) * np.exp(1j * np.outer(x, omegas))

    k15, g7 = _quadrature._panel_sums(f, edges[:-1], edges[1:])
    x, wk, wg = _quadrature.panel_nodes(edges[:-1], edges[1:])
    fv = f(x.ravel()).reshape(*x.shape, m)
    for got, w in ((k15, wk), (g7, wg)):
        ref = np.sum(w[:, :, None] * fv, axis=1)
        assert got.shape == (357, m)
        assert np.max(np.abs(got - ref)) <= 1e-15 * np.max(np.abs(ref))
