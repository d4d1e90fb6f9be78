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

Every lagged kernel is also (exp(-r1 D) - exp(-r2 D)) / (r2 - r1), with
complex conjugate rates when oscillatory and the equal-rate limit when
critical; the harmonic coefficient engine in ``series`` convolves a
periodic source with these exponentials in closed form.
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
    # A lag so small that the fast rate stiffness/(2 tau_q) or the slow
    # rate's numerator alpha k2 / tau_q overflows is numerically
    # indistinguishable from the zero-lag branch; fall through rather than
    # propagate infs into the kernels.
    with np.errstate(over="ignore"):
        lag_resolvable = s.tau_q > 0.0 and bool(
            np.isfinite(stiffness[-1] / (2.0 * s.tau_q))
            and np.isfinite(s.alpha * k2[-1] / s.tau_q))
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


def kernel_matrix(regime, damping, splitting, slow, delta) -> np.ndarray:
    """Kernel values for every (time, mode) pair; delta (Q,) -> (Q, P).

    K(0) = 0 in every lagged regime and 1 on the diffusive branch.  delta
    must be >= 0; the coefficient engine clamps it there.
    """
    delta = np.asarray(delta, dtype=float)
    d = delta[:, None]
    out = np.empty((delta.size, regime.size))

    sel = regime == OVERDAMPED
    if sel.any():
        b2 = splitting[sel][None, :]
        expo = np.exp(-slow[sel][None, :] * d)
        out[:, sel] = expo * (-np.expm1(-2.0 * b2 * d)) / (2.0 * b2)
    sel = regime == CRITICAL
    if sel.any():
        out[:, sel] = d * np.exp(-damping[sel][None, :] * d)
    sel = regime == OSCILLATORY
    if sel.any():
        ab2 = splitting[sel][None, :]
        expo = np.exp(-damping[sel][None, :] * d)
        # d * sinc(|b2| d / pi) = sin(|b2| d)/|b2|, continuous through b2 = 0
        out[:, sel] = expo * d * np.sinc(ab2 * d / np.pi)
    sel = regime == DIFFUSIVE
    if sel.any():
        out[:, sel] = np.exp(-damping[sel][None, :] * d)
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
