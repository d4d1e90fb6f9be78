"""Per-mode spectral data and the temporal relaxation kernel.

Each spatial eigenfunction sin(kx x) sin(ky y) relaxes with a kernel K
determined by the roots of tau_q r^2 + (1 + alpha tau_T k2) r + alpha k2:

  overdamped   discriminant > 0   K = exp(-b1 D) sinh(b2 D) / b2
  critical     discriminant = 0   K = D exp(-b1 D)
  oscillatory  discriminant < 0   K = exp(-b1 D) sin(|b2| D) / |b2|
  diffusive    tau_q = 0          K = exp(-decay D)

with b1 = damping and b2 = splitting.  The sinh form overflows for large
arguments, so the overdamped kernel is evaluated as
exp(-(b1 - b2) D) (1 - exp(-2 b2 D)) / (2 b2); b1 >= b2 always holds there,
and the slow rate b1 - b2 is computed as (alpha k2 / tau_q)/(b1 + b2) to
avoid cancellation for nearly-critical modes.

For a source that repeats with period T, ``kernel_matrix`` also returns
the folded kernel sum_{i<c} K(D + i T) in closed form, through the
geometric sums G(r) = sum_{i<c} exp(-r i T) = expm1(-r c T)/expm1(-r T)
(complex r for oscillatory modes) and their ramp-weighted variants.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import PlateScenario

OVERDAMPED = 0
CRITICAL = 1
OSCILLATORY = 2
DIFFUSIVE = 3
REGIME_NAMES = ("overdamped", "critical", "oscillatory", "diffusive")


@dataclass(frozen=True)
class ModeTable:
    """All per-mode constants for truncation M x N, sorted by ascending k2.

    ``damping`` holds b1 for the lagged branch and the generalized decay
    rate alpha k2 / (1 + alpha tau_T k2) for the diffusive branch.  ``gain``
    is the diffusive amplitude factor 1 / (1 + alpha tau_T k2), identically
    1 for the lagged branch.  ``slow`` is the cancellation-free b1 - b2 for
    overdamped modes (equal to ``damping`` elsewhere, unused).
    """

    M: int
    N: int
    classical: bool
    m: np.ndarray
    n: np.ndarray
    kx: np.ndarray
    ky: np.ndarray
    k2: np.ndarray
    regime: np.ndarray
    damping: np.ndarray
    splitting: np.ndarray
    slow: np.ndarray
    gain: np.ndarray
    inv: np.ndarray  # (m-1)*N + (n-1) -> sorted position

    @property
    def nmodes(self) -> int:
        return self.m.size

    def index_of(self, m: int, n: int) -> int:
        if not (1 <= m <= self.M and 1 <= n <= self.N):
            raise IndexError(f"mode ({m}, {n}) outside truncation "
                             f"({self.M}, {self.N})")
        return int(self.inv[(m - 1) * self.N + (n - 1)])


def build_mode_table(s: PlateScenario, M: int, N: int) -> ModeTable:
    """Classify every mode of the M x N truncation for scenario s.

    Regimes follow the exact sign of the discriminant
    (1 + alpha tau_T k2)^2 - 4 alpha tau_q k2; tau_q = 0 selects the
    diffusive branch for the whole table.
    """
    if M < 1 or N < 1:
        raise ValueError(f"truncation must be at least 1x1, got {M}x{N}")
    mm, nn = np.meshgrid(np.arange(1, M + 1), np.arange(1, N + 1),
                         indexing="ij")
    m = mm.reshape(-1)
    n = nn.reshape(-1)
    kx = m * (np.pi / s.L)
    ky = n * (np.pi / s.H)
    k2 = kx * kx + ky * ky

    order = np.argsort(k2, kind="stable")
    inv = np.empty_like(order)
    inv[order] = np.arange(order.size)
    m, n, kx, ky, k2 = m[order], n[order], kx[order], ky[order], k2[order]

    stiffness = 1.0 + s.alpha * s.tau_T * k2
    # A lag so small that the fast rate stiffness/(2 tau_q) overflows is
    # numerically indistinguishable from the zero-lag branch; fall through
    # rather than propagate infs into the kernels.
    with np.errstate(over="ignore"):
        lag_resolvable = s.tau_q > 0.0 and bool(
            np.isfinite(stiffness[-1] / (2.0 * s.tau_q)))
    if not lag_resolvable:
        gain = 1.0 / stiffness
        damping = s.alpha * k2 * gain
        regime = np.full(k2.shape, DIFFUSIVE, dtype=np.int8)
        splitting = np.zeros_like(k2)
        slow = damping.copy()
    else:
        gain = np.ones_like(k2)
        damping = stiffness / (2.0 * s.tau_q)
        disc = stiffness * stiffness - 4.0 * s.alpha * s.tau_q * k2
        regime = np.where(disc > 0.0, OVERDAMPED,
                          np.where(disc < 0.0, OSCILLATORY, CRITICAL))
        regime = regime.astype(np.int8)
        splitting = np.sqrt(np.abs(disc)) / (2.0 * s.tau_q)
        splitting[regime == CRITICAL] = 0.0
        slow = damping.copy()
        over = regime == OVERDAMPED
        slow[over] = (s.alpha * k2[over] / s.tau_q) / (damping[over] + splitting[over])

    return ModeTable(M=M, N=N, classical=not lag_resolvable,
                     m=m, n=n, kx=kx, ky=ky, k2=k2, regime=regime,
                     damping=damping, splitting=splitting, slow=slow,
                     gain=gain, inv=inv)


def _geometric(rate, period, copies):
    """sum_{i<copies} exp(-rate i period) = expm1(-rate c T) / expm1(-rate T).

    rate may be complex (oscillatory modes use damping - i |splitting|).
    """
    return np.expm1(-rate * (copies * period)) / np.expm1(-rate * period)


def _ramp_sum(rate, fast, h, period, copies):
    """sum_{i<copies} q^i h(i period) with q = exp(-rate period), closed form.

    h(x) = (1 - exp(-(fast - rate) x)) / (fast - rate) for overdamped modes
    (the kernel without its slow exponential), and h(x) = x with
    fast = rate for critical ones, the limit as the rates meet.
    """
    q = np.exp(-rate * period)
    q_c = np.exp(-rate * (copies * period))
    one_minus_q = -np.expm1(-rate * period)
    return ((q * h(period) * -np.expm1(-rate * (copies * period))
             - one_minus_q * q_c * h(copies * period))
            / (one_minus_q * -np.expm1(-fast * period)))


def kernel_matrix(regime, damping, splitting, slow, delta,
                  fold=None) -> np.ndarray:
    """Kernel values for every (time, mode) pair; delta (Q,) -> (Q, P).

    K(0) = 0 in every lagged regime and 1 on the diffusive branch.  delta
    must be >= 0; the coefficient engine clamps it there.

    ``fold = (period, copies)`` returns the folded kernel
    sum_{i<copies} K(delta + i period) instead: the history of a periodic
    source laid over its last period.  With G(r) = sum_{i<c} exp(-r i T),
    the closed forms are

      overdamped   exp(-slow D) (h(D) G(slow) + exp(-2 b2 D) S),
                   h(D) = (1 - exp(-2 b2 D)) / (2 b2), S = sum q^i h(i T)
      critical     exp(-b1 D) (D G(b1) + T sum i q^i)
      oscillatory  Im(exp(-r D) G(r)) / |b2| with complex r = b1 - i |b2|
      diffusive    exp(-decay D) G(decay)

    The overdamped form is the slow-rate and fast-rate sums regrouped so
    that every term is nonnegative; it tends to the critical form as
    b2 -> 0 without a difference of nearly equal sums.  One copy (or no
    fold) gives exactly the unfolded values.
    """
    delta = np.asarray(delta, dtype=float)
    d = delta[:, None]
    out = np.empty((delta.size, regime.size))
    period, copies = fold if fold is not None else (0.0, 1)
    folded = copies != 1

    sel = regime == OVERDAMPED
    if sel.any():
        b2 = splitting[sel][None, :]
        expo = np.exp(-slow[sel][None, :] * d)
        em = np.expm1(-2.0 * b2 * d)
        if folded:
            rate, split2 = slow[sel], 2.0 * splitting[sel]
            ramp = _ramp_sum(rate, rate + split2,
                             lambda x: -np.expm1(-split2 * x) / split2,
                             period, copies)
            weight = ramp - _geometric(rate, period, copies) / split2
            out[:, sel] = expo * (ramp + em * weight)
        else:
            out[:, sel] = expo * (-em) / (2.0 * b2)
    sel = regime == CRITICAL
    if sel.any():
        b1 = damping[sel]
        if folded:
            out[:, sel] = np.exp(-b1[None, :] * d) * (
                d * _geometric(b1, period, copies)
                + _ramp_sum(b1, b1, lambda x: x, period, copies))
        else:
            out[:, sel] = d * np.exp(-b1[None, :] * d)
    sel = regime == OSCILLATORY
    if sel.any():
        ab2 = splitting[sel][None, :]
        expo = np.exp(-damping[sel][None, :] * d)
        # d * sinc(|b2| d / pi) = sin(|b2| d)/|b2|, continuous through b2 = 0
        if folded:
            geo = _geometric(damping[sel] - 1j * splitting[sel], period, copies)
            out[:, sel] = expo * (d * np.sinc(ab2 * d / np.pi) * geo.real
                                  + np.cos(ab2 * d) * (geo.imag / splitting[sel]))
        else:
            out[:, sel] = expo * d * np.sinc(ab2 * d / np.pi)
    sel = regime == DIFFUSIVE
    if sel.any():
        expo = np.exp(-damping[sel][None, :] * d)
        if folded:
            expo *= _geometric(damping[sel], period, copies)
        out[:, sel] = expo
    return out


def kernel_tail_mass(regime, damping, splitting, slow, delta0) -> np.ndarray:
    """Upper bound on integral of |K| over [delta0, infinity) per mode.

    Used to deactivate modes whose remaining convolution mass cannot move
    the result beyond the error budget.
    """
    d0 = float(delta0)
    out = np.empty(regime.shape)

    sel = regime == OVERDAMPED
    if sel.any():
        b1b2 = damping[sel] + splitting[sel]
        out[sel] = (np.exp(-slow[sel] * d0) / slow[sel]
                    - np.exp(-b1b2 * d0) / b1b2) / (2.0 * splitting[sel])
    sel = regime == CRITICAL
    if sel.any():
        b1 = damping[sel]
        out[sel] = np.exp(-b1 * d0) * (d0 + 1.0 / b1) / b1
    sel = regime == OSCILLATORY
    if sel.any():
        b1 = damping[sel]
        ramp = np.exp(-b1 * d0) * (d0 + 1.0 / b1) / b1  # |sin x| <= x
        flat = np.exp(-b1 * d0) / (b1 * splitting[sel])  # |sin x| <= 1
        out[sel] = np.minimum(ramp, flat)
    sel = regime == DIFFUSIVE
    if sel.any():
        out[sel] = np.exp(-damping[sel] * d0) / damping[sel]
    return out
