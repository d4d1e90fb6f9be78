"""Vectorized adaptive Gauss-Kronrod (G7-K15) panel integration.

The convolution coefficients need one integral per spatial mode over the
same time interval, so the engine integrates a whole family of integrands
(columns) in lockstep: the integrand callback receives a batch of sample
times (Q,) and returns a (Q, C) matrix.  Panels are bisected until every
column meets its own tolerance.  All decisions depend only on computed
values, and panel sums run in ascending-interval order, so results are
bit-reproducible for a given integrand.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import QuadratureNotConverged

# 15-point Kronrod extension of 7-point Gauss-Legendre on [-1, 1].
# Classic QUADPACK values; Gauss nodes sit at every second Kronrod node.
_POS_NODES = np.array([
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
])
_K15_POS_WEIGHTS = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,  # center
])
_G7_POS_WEIGHTS = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,  # center
])

NODES = np.concatenate([-_POS_NODES, [0.0], _POS_NODES[::-1]])
K15_WEIGHTS = np.concatenate(
    [_K15_POS_WEIGHTS[:7], [_K15_POS_WEIGHTS[7]], _K15_POS_WEIGHTS[6::-1]])
G7_INDEX = np.array([1, 3, 5, 7, 9, 11, 13])
G7_WEIGHTS = np.concatenate(
    [_G7_POS_WEIGHTS[:3], [_G7_POS_WEIGHTS[3]], _G7_POS_WEIGHTS[2::-1]])


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and budget for the adaptive convolution quadrature."""

    abs_tol: float = 1e-10
    rel_tol: float = 1e-8
    max_subintervals: int = 20000


def _panel_rule(f, lefts, rights):
    """K15 values and |K15 - G7| error estimates for a batch of panels.

    Returns (values (P, C), errors (P, C)); makes a single call to f with
    all P * 15 sample points.
    """
    mid = 0.5 * (lefts + rights)
    half = 0.5 * (rights - lefts)
    pts = mid[:, None] + half[:, None] * NODES[None, :]
    flat = f(pts.reshape(-1))
    flat = np.atleast_2d(np.asarray(flat, dtype=float))
    if flat.shape[0] == 1 and pts.size > 1:
        flat = flat.T
    # The weighted sums below run in memory order, so fix the order to keep
    # the bits independent of how the integrand laid out its result.
    flat = np.ascontiguousarray(flat)
    vals = flat.reshape(pts.shape[0], NODES.size, -1)
    k15 = np.einsum("q,pqc->pc", K15_WEIGHTS, vals) * half[:, None]
    g7 = np.einsum("q,pqc->pc", G7_WEIGHTS, vals[:, G7_INDEX, :]) * half[:, None]
    return k15, np.abs(k15 - g7)


def integrate_columns(f, a, b, spec: QuadratureSpec, *,
                      abs_tol=None, breakpoints=None):
    """Integrate every column of f over [a, b] adaptively.

    Parameters
    ----------
    f : callable
        Maps sample times (Q,) to values (Q, C); (Q,) output is treated as
        a single column.
    a, b : float
        Integration interval, a <= b.
    spec : QuadratureSpec
        Tolerances and the subinterval budget.
    abs_tol : float or (C,) array, optional
        Per-column absolute tolerance; defaults to spec.abs_tol.  The
        effective target per column is max(abs_tol, rel_tol * |integral|).
    breakpoints : array-like, optional
        Interior points the initial panelization must honor (trajectory
        quarter-periods, kernel knees).

    Returns
    -------
    totals : (C,) ndarray
    errors : (C,) ndarray
        Accumulated |K15 - G7| estimates per column.
    """
    if b < a:
        raise ValueError(f"integration interval reversed: [{a}, {b}]")
    if b == a:
        probe = np.atleast_2d(np.asarray(f(np.array([a])), dtype=float))
        ncols = probe.shape[-1]
        return np.zeros(ncols), np.zeros(ncols)

    edges = [a, b]
    if breakpoints is not None:
        edges.extend(p for p in np.asarray(breakpoints, dtype=float).ravel()
                     if a < p < b)
    edges = np.unique(np.asarray(edges, dtype=float))

    lefts = edges[:-1].copy()
    rights = edges[1:].copy()
    vals, errs = _panel_rule(f, lefts, rights)
    ncols = vals.shape[1]

    abs_vec = np.broadcast_to(
        np.asarray(spec.abs_tol if abs_tol is None else abs_tol, dtype=float),
        (ncols,)).copy()

    while True:
        order = np.argsort(lefts, kind="stable")
        lefts, rights = lefts[order], rights[order]
        vals, errs = vals[order], errs[order]
        totals = vals.sum(axis=0)
        total_err = errs.sum(axis=0)
        tol = np.maximum(abs_vec, spec.rel_tol * np.abs(totals))
        bad = total_err > tol
        if not bad.any():
            return totals, total_err

        scores = (errs[:, bad] / tol[None, bad]).max(axis=1)
        smax = scores.max()
        if not np.isfinite(smax):
            split = ~np.isfinite(errs).all(axis=1)
        elif smax <= 0.0:
            return totals, total_err
        else:
            split = scores >= smax / 8.0

        room = spec.max_subintervals - lefts.size
        if room <= 0:
            raise QuadratureNotConverged(
                f"subinterval budget {spec.max_subintervals} exhausted; "
                f"worst column error {float(total_err[bad].max()):.3e} "
                f"vs tolerance {float(tol[bad].min()):.3e}",
                achieved=float(total_err[bad].max()),
                requested=float(tol[bad].min()))
        # Each split evaluates 30 * ncols values, so cap the batch to keep
        # the peak allocation of one integrand call bounded (~tens of MB).
        allowed = min(room, max(64, (1 << 17) // ncols))
        if int(split.sum()) > allowed:
            # Keep the worst offenders within the batch budget.
            keep = np.argsort(scores)[::-1][:allowed]
            mask = np.zeros_like(split)
            mask[keep] = True
            split = mask

        sl, sr = lefts[split], rights[split]
        sm = 0.5 * (sl + sr)
        child_l = np.concatenate([sl, sm])
        child_r = np.concatenate([sm, sr])
        cvals, cerrs = _panel_rule(f, child_l, child_r)

        lefts = np.concatenate([lefts[~split], child_l])
        rights = np.concatenate([rights[~split], child_r])
        vals = np.concatenate([vals[~split], cvals])
        errs = np.concatenate([errs[~split], cerrs])


def integrate_scalar(f, a, b, spec: QuadratureSpec, *,
                     abs_tol=None, breakpoints=None) -> float:
    """Adaptive integral of a scalar integrand (vectorized over samples)."""

    def column(ts):
        return np.asarray(f(ts), dtype=float).reshape(-1, 1)

    totals, _ = integrate_columns(column, a, b, spec,
                                  abs_tol=abs_tol, breakpoints=breakpoints)
    return float(totals[0])
