"""Incremental P_mn evaluation, the cross-check for ``mode_coefficients``.

It reuses the package's adaptive quadrature, so it lives in its own module
and not in ``helpers`` (whose oracles share no code with the quadrature).
"""

import math
from dataclasses import replace

import numpy as np

from dpl_heatlab.errors import NegativeElapsed
from dpl_heatlab.modes import CRITICAL, DIFFUSIVE, OSCILLATORY, OVERDAMPED
from dpl_heatlab.quadrature import QuadratureSpec, integrate_columns
from dpl_heatlab.series import PointSourceFactors


def _quarter_periods(s, a, b):
    """a, b and the source's quarter-periods inside (a, b)."""
    pts = [a, b]
    w = s.trajectory.w
    if w != 0.0:
        quarter = 0.5 * math.pi / abs(w)
        first = int(math.floor(a / quarter))
        last = int(math.floor(b / quarter))
        pts.extend(j * quarter for j in range(first, last + 1)
                   if a < j * quarter < b)
    return np.unique(np.asarray(pts, dtype=float))


class CoefficientHistory:
    """Incremental P_mn evaluation by exponential-state recurrences.

    Each mode's kernel is a combination of exponentials in elapsed time,
    so the convolution state advances from t to t + h by damping the
    stored state and adding a local integral over [t, t + h]:

      overdamped   E_s, E_f with rates slow and damping + splitting;
                   P = (E_s - E_f) / (2 splitting)
      oscillatory  complex state with rate damping - i |splitting|;
                   P = Im / |splitting|
      critical     E0 (plain) and E1 (ramp-weighted); E1 gains h * E0
                   on each shift; P = E1
      diffusive    single E with the decay rate; P = E

    Local integrals take the adaptive quadrature with the source's
    quarter-periods as breakpoints, so the history is an independent route
    to the harmonic engine's closed form.  States start at the quiescent
    initial condition, P_mn(0) = 0.
    """

    def __init__(self, s, table, quad=None):
        self.s = s
        self.table = table
        self.quad = quad or QuadratureSpec()
        self.rates = table.kx[::table.N], table.ky[:table.N]
        self.t = 0.0
        n = table.nmodes
        self._e_slow = np.zeros(n)   # overdamped slow / critical E0 / diffusive E
        self._e_fast = np.zeros(n)   # overdamped fast / critical E1
        self._e_cos = np.zeros(n)    # oscillatory real part
        self._e_sin = np.zeros(n)    # oscillatory imag part

    def _local_integrals(self, t_new):
        """Segment integrals with kernels anchored at t_new, per state."""
        table = self.table
        reg = table.regime
        over = reg == OVERDAMPED
        crit = reg == CRITICAL
        osc = reg == OSCILLATORY
        rate_slow = np.where(over, table.slow, table.damping)  # crit/diff reuse
        rate_fast = table.damping + table.splitting

        def f(taus):
            delta = np.maximum(t_new - taus, 0.0)[:, None]
            base = PointSourceFactors(self.s, *self.rates, taus)(
                slice(None), slice(None))
            cols = [base * np.exp(-rate_slow[None, :] * delta)]
            cols.append(np.where(over[None, :],
                                 base * np.exp(-rate_fast[None, :] * delta),
                                 np.where(crit[None, :], cols[0] * delta, 0.0)))
            phase = table.splitting[None, :] * delta
            cols.append(np.where(osc[None, :], cols[0] * np.cos(phase), 0.0))
            cols.append(np.where(osc[None, :], cols[0] * np.sin(phase), 0.0))
            return np.concatenate(cols, axis=1)

        seg_spec = replace(self.quad, rel_tol=0.0)
        totals, _ = integrate_columns(
            f, self.t, t_new, seg_spec, abs_tol=self.quad.abs_tol,
            breakpoints=_quarter_periods(self.s, self.t, t_new))
        n = table.nmodes
        return totals[:n], totals[n:2 * n], totals[2 * n:3 * n], totals[3 * n:]

    def advance(self, t_new):
        """Move the state from the current time to t_new > t."""
        if t_new < self.t:
            raise NegativeElapsed(
                f"cannot step backward from {self.t!r} to {t_new!r}")
        if t_new == self.t:
            return
        h = t_new - self.t
        table = self.table
        loc_slow, loc_mix, loc_cos, loc_sin = self._local_integrals(t_new)

        reg = table.regime
        over = reg == OVERDAMPED
        crit = reg == CRITICAL
        osc = reg == OSCILLATORY
        diff = reg == DIFFUSIVE

        decay_slow = np.exp(-np.where(over, table.slow, table.damping) * h)
        decay_fast = np.exp(-(table.damping + table.splitting) * h)

        e_slow_new = decay_slow * self._e_slow
        e_fast_new = np.where(
            over, decay_fast * self._e_fast,
            # critical: ramp state picks up h * E0 when the anchor shifts
            decay_slow * (self._e_fast + h * self._e_slow))
        e_slow_new[over | crit | diff] += loc_slow[over | crit | diff]
        e_fast_new[over | crit] += loc_mix[over | crit]

        if osc.any():
            rot_c = np.cos(table.splitting * h) * decay_slow
            rot_s = np.sin(table.splitting * h) * decay_slow
            e_cos_new = rot_c * self._e_cos - rot_s * self._e_sin + loc_cos
            e_sin_new = rot_s * self._e_cos + rot_c * self._e_sin + loc_sin
            self._e_cos = np.where(osc, e_cos_new, 0.0)
            self._e_sin = np.where(osc, e_sin_new, 0.0)

        self._e_slow = e_slow_new
        self._e_fast = e_fast_new
        self.t = t_new

    def values(self):
        """Current P_mn array, aligned with the table's mode order."""
        table = self.table
        reg = table.regime
        out = np.zeros(table.nmodes)
        over = reg == OVERDAMPED
        out[over] = ((self._e_slow[over] - self._e_fast[over])
                     / (2.0 * table.splitting[over]))
        crit = reg == CRITICAL
        out[crit] = self._e_fast[crit]
        osc = reg == OSCILLATORY
        out[osc] = self._e_sin[osc] / table.splitting[osc]
        diff = reg == DIFFUSIVE
        out[diff] = self._e_slow[diff]
        return out
