"""Adaptive Gauss-Kronrod quadrature for complex integrands.

One routine, :func:`adaptive_quad`, integrates m integrands on a shared
panel set, within one budget of MAX_PANELS panels and MAX_ROUNDS rounds. The
(G7, K15) pair gives an embedded error estimate per panel. Oscillatory
integrands are pre-panelled so a panel spans ~pi of phase at the
caller-supplied worst-case phase rate, 32 to MAX_PANELS // 3 pre-panels; past
that cap a pre-panel spans more (a single barrier (0.5, 5) over t in [0, 6e6]
asks for 43595 and converges on 20000 of about 2.2 pi in 0 rounds). On a pure
phase e^{iwx} over pi the embedded G7 rule errs by 5.7e-13 of the panel's
weight, and K15 only by rounding; adaptive refinement then splits wherever the
embedded estimate misses the tolerance, which also finds the *amplitude*
structure (narrow resonances, packet edges) the phase bound cannot see. The
first round bisects and later rounds quarter, so a resonance one bisection
left unresolved is chased two levels a round, and fewer rounds, each with its
fixed cost of numpy calls, are run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericsError

# Kronrod 15 abscissae on [-1, 1] (symmetric) and weights; the Gauss-7 rule
# reuses the odd-indexed abscissae. Values from the QUADPACK tables.
_XK = np.array([
    -0.991455371120812639206854697526329,
    -0.949107912342758524526189684047851,
    -0.864864423359769072789712788640926,
    -0.741531185599394439863864773280788,
    -0.586087235467691130294144838258730,
    -0.405845151377397166906606412076961,
    -0.207784955007898467600689403773245,
    0.0,
    0.207784955007898467600689403773245,
    0.405845151377397166906606412076961,
    0.586087235467691130294144838258730,
    0.741531185599394439863864773280788,
    0.864864423359769072789712788640926,
    0.949107912342758524526189684047851,
    0.991455371120812639206854697526329,
])
_WK = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
    0.204432940075298892414161999234649,
    0.190350578064785409913256402421014,
    0.169004726639267902826583426598550,
    0.140653259715525918745189590510238,
    0.104790010322250183839876322541518,
    0.063092092629978553290700663189204,
    0.022935322010529224963732008058970,
])
_WG = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
    0.381830050505118944950369775488975,
    0.279705391489276667901467771423780,
    0.129484966168869693270611432679082,
])
_GAUSS_IDX = np.arange(1, 15, 2)

NODES_PER_PANEL = 15
MAX_PANELS = 60000  # panel limit of every adaptive_quad run
MAX_ROUNDS = 31  # refinement rounds of every adaptive_quad run: 1 + 2 * 30 = 61 levels,
# and the cap is also what keeps a feature narrower than ulp(k) from converging to a wrong value
_MAX_STEP_PHASE = math.pi  # phase a pre-panel spans


def panel_nodes(a: np.ndarray, b: np.ndarray):
    """Kronrod nodes and (K15, G7-embedded) weights for panels [a_i, b_i].

    Returns arrays of shape (npanels, 15); the G7 weights are zero-padded to
    the Kronrod node layout so both rules share one integrand evaluation.
    """
    half = 0.5 * (b - a)[:, None]
    mid = 0.5 * (b + a)[:, None]
    x = mid + half * _XK[None, :]
    wk = half * _WK[None, :]
    wg = np.zeros_like(wk)
    wg[:, _GAUSS_IDX] = half * _WG[None, :]
    return x, wk, wg


def phase_panel_count(a: float, b: float, max_phase_rate: float) -> float:
    """Panels on [a, b] that each span < _MAX_STEP_PHASE of phase, before
    phase_panels clips the count; a float, inf when the phase overflows."""
    return float(np.ceil(abs(max_phase_rate) * (b - a) / _MAX_STEP_PHASE)) + 1.0


def phase_panels(a: float, b: float, max_phase_rate: float) -> np.ndarray:
    """Panel edges on [a, b] so each panel spans < _MAX_STEP_PHASE (~pi) of
    phase, clipped to at least 32 panels, which resolve a packet envelope when
    the phase is slow, and at most MAX_PANELS // 3, which leaves room to split."""
    if b <= a:
        raise NumericsError(f"empty integration interval [{a}, {b}]")
    n = int(min(max(phase_panel_count(a, b, max_phase_rate), 32), MAX_PANELS // 3))
    return np.linspace(a, b, n + 1)


@dataclass(frozen=True)
class Quadrature:
    """Result of :func:`adaptive_quad`: the m integrals and the final panels,
    each with its position among the panels in the order f evaluated them."""

    value: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    error_estimate: float
    rounds: int
    evaluated_at: np.ndarray


def _panel_sums(f, lo: np.ndarray, hi: np.ndarray):
    """(K15, G7) sums of f on each panel, both of shape (npanels, m), as one
    stacked (2, 15) @ (15, m) product per panel: no weighted (npanels, 15, m) copy."""
    x, wk, wg = panel_nodes(lo, hi)
    fv = np.asarray(f(x.ravel()), dtype=complex).reshape(*x.shape, -1)
    sums = np.stack([wk, wg], axis=1).astype(complex) @ fv
    return sums[:, 0], sums[:, 1]


def adaptive_quad(f, edges: np.ndarray, rel_tol: float) -> Quadrature:
    """Integrate f over [edges[0], edges[-1]], starting from the given panels.

    f maps an array of n nodes to an (n, m) complex array: m integrands that
    share one panel set. A panel's error is the worst |K15 - G7| over the m
    columns. Each round splits the worst panels until the summed error falls
    below rel_tol times the largest column integral; a column whose integral
    vanishes by cancellation counts as 1e-8 of its summed |K15|. The first
    round bisects each bad panel [a, b] at m = (a + b)/2; every later round
    quarters it at m, (a + m)/2 and (m + b)/2, so each cut is a midpoint of
    two existing edges and the panels tile [edges[0], edges[-1]] bit for bit.
    A round's new panels go to f in one call, every parent's first piece
    first, then every second piece, and so on. Raises NumericsError on a non-finite error estimate, before a
    round whose splits would exceed MAX_PANELS panels, or when MAX_ROUNDS
    rounds leave the error above tolerance.
    """
    edges = np.asarray(edges, dtype=float)
    lo, hi = edges[:-1], edges[1:]
    at = np.arange(lo.size)
    k15, g7 = _panel_sums(f, lo, hi)
    for rounds in range(MAX_ROUNDS + 1):
        err = np.max(np.abs(k15 - g7), axis=1)
        total = float(np.sum(err))
        scale = np.maximum(np.abs(np.sum(k15, axis=0)), np.sum(np.abs(k15), axis=0) * 1e-8)
        tol = rel_tol * max(float(np.max(scale)), 1e-300)
        if total <= tol:
            return Quadrature(np.sum(k15, axis=0), lo, hi, total, rounds, at)
        # split every panel contributing more than its fair share of budget
        bad = err > max(tol / lo.size, float(np.max(err)) * 0.25)
        a, b = lo[bad], hi[bad]
        mid = 0.5 * (a + b)
        cuts = [a, mid, b] if rounds == 0 else [a, 0.5 * (a + mid), mid, 0.5 * (mid + b), b]
        added = (len(cuts) - 2) * a.size  # a bisection adds 1 panel, a quartering 3
        if not math.isfinite(total) or lo.size + added > MAX_PANELS or rounds == MAX_ROUNDS:
            worst = int(np.argmax(np.where(np.isfinite(err), err, np.inf)))
            reason = ("error estimate is not finite" if not math.isfinite(total)
                      else "failed to converge")
            raise NumericsError(
                f"quadrature {reason}",
                diagnostics={"panels": int(lo.size), "refinement_rounds": rounds,
                             "total_error": total, "tolerance": float(tol),
                             "worst_panel": (float(lo[worst]), float(hi[worst]),
                                             float(err[worst]))})
        new_lo, new_hi = np.concatenate(cuts[:-1]), np.concatenate(cuts[1:])
        nk15, ng7 = _panel_sums(f, new_lo, new_hi)
        k15 = np.concatenate([k15[~bad], nk15])
        g7 = np.concatenate([g7[~bad], ng7])
        # at still holds the whole last batch, so at.max() + 1 panels were evaluated
        at = np.concatenate([at[~bad], at.max() + 1 + np.arange(new_lo.size)])
        lo, hi = np.concatenate([lo[~bad], new_lo]), np.concatenate([hi[~bad], new_hi])
