"""The adaptive Gauss-Kronrod routine that every momentum integral uses."""

from __future__ import annotations

import math

import numpy as np
import pytest

from tunnelkit import NumericsError
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
    # eight coarse panels: every oscillation beyond them is found by bisection
    quad = adaptive_quad(_wave([omega]), np.linspace(0.0, 1.0, 9), rel_tol)
    assert abs(quad.value[0] - _exact(omega)) <= rel_tol * abs(_exact(omega))
    assert quad.error_estimate <= rel_tol * abs(quad.value[0])


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


def test_cancelling_column_uses_absolute_floor():
    # int_0^{2 pi} sin x dx = 0: relative accuracy is meaningless, the
    # 1e-8 sum|K15| floor lets the run converge instead of refining forever
    quad = adaptive_quad(lambda x: np.sin(x)[:, None], np.linspace(0.0, 2 * np.pi, 9), 1e-10)
    assert abs(quad.value[0]) < 1e-12


def test_panel_cap_raises_with_diagnostics():
    with pytest.raises(NumericsError, match="failed to converge") as exc:
        adaptive_quad(_wave([1e3]), np.linspace(0.0, 1.0, 9), 1e-10, max_panels=16)
    diag = exc.value.diagnostics
    assert diag["panels"] >= 16
    assert diag["panels"] <= 16  # never above the cap
    assert diag["total_error"] > diag["tolerance"]
    lo, hi, err = diag["worst_panel"]
    assert 0.0 <= lo < hi <= 1.0 and err > 0.0


def test_panel_cap_is_not_overshot():
    # the cap is checked before each round: a round that would bisect the
    # 64 panels to 128 is not run, so the failing run reports 64, not 128
    with pytest.raises(NumericsError, match="failed to converge") as exc:
        adaptive_quad(_wave([1e3]), np.linspace(0.0, 1.0, 9), 1e-10, max_panels=100)
    assert 50 < exc.value.diagnostics["panels"] <= 100


def test_round_cap_raises():
    with pytest.raises(NumericsError, match="failed to converge") as exc:
        adaptive_quad(_wave([1e3]), np.linspace(0.0, 1.0, 9), 1e-10, max_rounds=2)
    assert exc.value.diagnostics["refinement_rounds"] == 2


def test_non_finite_integrand_raises_at_once():
    def f(x):
        return np.where(x > 0.5, np.nan, 1.0)[:, None] + 0j

    with pytest.raises(NumericsError, match="not finite") as exc:
        adaptive_quad(f, np.linspace(0.0, 1.0, 9), 1e-10)
    assert exc.value.diagnostics["refinement_rounds"] == 0
    assert exc.value.diagnostics["worst_panel"][0] >= 0.5
