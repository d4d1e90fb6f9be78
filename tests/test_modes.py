import dataclasses
import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import dpl_heatlab as dh
from dpl_heatlab.errors import NegativeElapsed
from dpl_heatlab.modes import (CRITICAL, DIFFUSIVE, OSCILLATORY, OVERDAMPED,
                               build_mode_table, kernel_matrix)
from dpl_heatlab.series import mode_coefficients
from helpers import index_of, tiny_scenario


def test_fundamental_eigenvalue_unit_square():
    table = build_mode_table(tiny_scenario(L=1.0, H=1.0), 1, 1)
    assert math.isclose(table.k2[0], 2.0 * math.pi ** 2, rel_tol=1e-15)


def test_rate_splitting_against_high_precision():
    # alpha = 1.29e-5, tau_q = tau_T = 1, k2 = 2 pi^2: nearly balanced roots.
    s = tiny_scenario(L=1.0, H=1.0, alpha=1.29e-5, tau_q=1.0, tau_T=1.0)
    table = build_mode_table(s, 1, 1)
    with mpmath.workdps(60):
        lam2 = 2 * mpmath.pi ** 2
        a = mpmath.mpf("1.29e-5")
        stiff = 1 + a * lam2
        damping = stiff / 2
        splitting = mpmath.sqrt(stiff ** 2 - 4 * a * lam2) / 2
        assert abs(table.damping[0] - float(damping)) < 1e-14
        assert abs(table.splitting[0] - float(splitting)) < 1e-13
    assert abs(table.damping[0] - 0.5001273) < 1e-7
    assert abs(table.splitting[0] - 0.4998727) < 1e-7
    assert table.regime[0] == OVERDAMPED


def test_equal_lags_never_oscillate():
    # Discriminant (1 + x)^2 - 4x = (1 - x)^2 >= 0 when tau_q = tau_T.
    s = tiny_scenario(alpha=0.05, tau_q=3.0, tau_T=3.0)
    table = build_mode_table(s, 12, 12)
    assert not (table.regime == OSCILLATORY).any()


def test_exactly_critical_mode():
    # L = H = pi gives k2 = 2 for mode (1,1); alpha tau k2 = 1 exactly.
    s = dh.PlateScenario(L=math.pi, H=math.pi, theta=1.0, k=1.0, alpha=0.25,
                         tau_q=2.0, tau_T=2.0,
                         trajectory=dh.Trajectory(kind="circle", A=0.5, B=0.5, w=1.0))
    table = build_mode_table(s, 1, 1)
    assert table.regime[0] == CRITICAL
    assert table.splitting[0] == 0.0


def test_oscillatory_regime_detected():
    s, _ = dh.load_bundled("ct_alpha2_q5_T1")
    table = build_mode_table(s, 12, 12)
    assert table.regime[index_of(table, 1, 1)] == OSCILLATORY
    # gradient-precedence scenarios still relax monotonically at high k2
    assert table.regime[np.argmax(table.k2)] == OVERDAMPED


def test_classical_branch_rates():
    s = tiny_scenario(tau_q=0.0, tau_T=0.0, alpha=0.01)
    table = build_mode_table(s, 3, 3)
    assert (table.regime == DIFFUSIVE).all()
    assert np.allclose(table.damping, s.alpha * table.k2, rtol=1e-15)
    assert (table.gain == 1.0).all()

    smoothed = tiny_scenario(tau_q=0.0, tau_T=2.0, alpha=0.01)
    t2 = build_mode_table(smoothed, 3, 3)
    stiff = 1.0 + smoothed.alpha * smoothed.tau_T * t2.k2
    assert np.allclose(t2.gain, 1.0 / stiff, rtol=1e-15)
    assert np.allclose(t2.damping, smoothed.alpha * t2.k2 / stiff, rtol=1e-15)


@pytest.mark.parametrize("change,term", [
    ({"alpha": 1e200}, r"\(1 \+ alpha tau_T k2\)\^2 - 4 alpha tau_q k2"),
    ({"alpha": 1.0, "tau_T": 1e308}, r"1 \+ alpha tau_T k2"),
], ids=["discriminant", "stiffness"])
def test_overflowing_rates_raise(change, term):
    # alpha = 1e200 on lst_q1_T1: (1 + alpha tau_T k2)^2 overflows, so the
    # rates would be inf.  alpha = 1, tau_T = 1e308: 1 + alpha tau_T k2
    # itself overflows, which once demoted the table to the diffusive
    # branch with zero rates.  Both used to give NaN coefficients.
    s, _ = dh.load_bundled("lst_q1_T1")
    with pytest.raises(OverflowError,
                       match=rf"mode \(1, 1\): {term} overflows"):
        build_mode_table(dataclasses.replace(s, **change), 6, 6)


def test_classical_branch_keeps_huge_diffusivities():
    # The classical table has no discriminant: at alpha = 1e200 its rates
    # and coefficients stay finite.
    s, _ = dh.load_bundled("lst_default")
    s = dataclasses.replace(s, alpha=1e200)
    table = build_mode_table(s, 6, 6)
    assert table.classical and np.isfinite(table.slow).all()
    coeffs = mode_coefficients(s, table, 25.0)
    assert np.isfinite(coeffs).all() and np.abs(coeffs).max() > 0.0


def test_table_sorted_and_indexable():
    table = build_mode_table(tiny_scenario(L=0.5, H=0.4), 6, 5)
    assert table.nmodes == 30
    # sorted by (m, n): row-major
    mm, nn = np.meshgrid(np.arange(1, 7), np.arange(1, 6), indexing="ij")
    assert np.array_equal(table.m, mm.ravel())
    assert np.array_equal(table.n, nn.ravel())
    for m, n in [(1, 1), (3, 4), (6, 5), (2, 1)]:
        i = index_of(table, m, n)
        assert i == (m - 1) * 5 + (n - 1)
        assert (table.m[i], table.n[i]) == (m, n)
        assert math.isclose(table.kx[i], m * math.pi / 0.5, rel_tol=1e-15)
        assert math.isclose(table.ky[i], n * math.pi / 0.4, rel_tol=1e-15)


# --- kernel ----------------------------------------------------------------


def synthetic_kernel(regime, damping, splitting, slow, deltas):
    return kernel_matrix(np.array([regime]), np.array([damping]),
                         np.array([splitting]), np.array([slow]),
                         np.asarray(deltas, dtype=float))[:, 0]


def test_kernel_at_zero_delay():
    assert synthetic_kernel(OVERDAMPED, 0.5, 0.25, 0.25, [0.0])[0] == 0.0
    assert synthetic_kernel(CRITICAL, 0.5, 0.0, 0.0, [0.0])[0] == 0.0
    assert synthetic_kernel(OSCILLATORY, 0.5, 0.25, 0.0, [0.0])[0] == 0.0
    assert synthetic_kernel(DIFFUSIVE, 0.5, 0.0, 0.0, [0.0])[0] == 1.0


def test_overdamped_kernel_closed_form():
    got = synthetic_kernel(OVERDAMPED, 0.5, 0.25, 0.25, [2.0])[0]
    expected = math.exp(-1.0) * math.sinh(0.5) / 0.25
    assert math.isclose(got, expected, rel_tol=1e-14)
    assert math.isclose(expected, 0.76674, rel_tol=1e-4)


def test_oscillatory_kernel_closed_form():
    got = synthetic_kernel(OSCILLATORY, 0.3, 2.0, 0.0, [1.5])[0]
    expected = math.exp(-0.45) * math.sin(3.0) / 2.0
    assert math.isclose(got, expected, rel_tol=1e-14)


def test_critical_kernel_is_overdamped_limit():
    deltas = np.linspace(0.1, 6.0, 13)
    crit = synthetic_kernel(CRITICAL, 0.5, 0.0, 0.0, deltas)
    prev = None
    for b2 in (1e-3, 1e-4, 1e-5, 1e-6):
        over = synthetic_kernel(OVERDAMPED, 0.5, b2, 0.5 - b2, deltas)
        gap = np.max(np.abs(over - crit) / crit)
        if prev is not None:
            assert gap < prev
        prev = gap
    assert prev < 1e-5


def test_kernel_no_overflow_at_huge_delay():
    # Underflow to zero is fine; overflow or NaN is not.
    with np.errstate(over="raise", invalid="raise"):
        over = synthetic_kernel(OVERDAMPED, 50.0, 50.0, 1e-6, [1e4])[0]
        osc = synthetic_kernel(OSCILLATORY, 50.0, 50.0, 0.0, [1e4])[0]
    assert np.isfinite(over) and over >= 0.0
    assert np.isfinite(osc)
    assert math.isclose(over, math.exp(-1e-2) / 100.0, rel_tol=1e-10)


def test_kernel_rejects_negative_delay():
    """Negative elapsed time is refused where it enters: the coefficients."""
    s = tiny_scenario()
    with pytest.raises(NegativeElapsed):
        mode_coefficients(s, build_mode_table(s, 1, 1), -0.5)


def test_kernel_entry_matches_matrix():
    """The whole-table kernel equals per-mode calls, column by column."""
    s, _ = dh.load_bundled("ct_alpha2_q1_T5")
    table = build_mode_table(s, 4, 4)
    deltas = np.linspace(0.0, 8.0, 17)
    whole = kernel_matrix(table.regime, table.damping, table.splitting,
                          table.slow, deltas)
    for i in range(table.nmodes):
        one = kernel_matrix(table.regime[i:i + 1], table.damping[i:i + 1],
                            table.splitting[i:i + 1], table.slow[i:i + 1],
                            deltas)[:, 0]
        assert np.array_equal(whole[:, i], one)


@settings(max_examples=60, deadline=None)
@given(
    alpha=st.floats(1e-6, 1.0),
    tau_q=st.floats(0.0, 10.0),
    tau_T=st.floats(0.0, 10.0),
)
@example(alpha=1.0, tau_q=1e-307, tau_T=0.0)   # alpha k2 / tau_q overflows
# b1 is finite but r1 + r2 = 2 b1 is not: slow's b1 + b2 overflowed to inf
@example(alpha=0.0078125, tau_q=2.2250738585072014e-308, tau_T=3.0)
def test_regime_classification_matches_discriminant(alpha, tau_q, tau_T):
    s = tiny_scenario(alpha=alpha, tau_q=tau_q, tau_T=tau_T)
    table = build_mode_table(s, 3, 3)
    stiff_max = 1.0 + alpha * tau_T * table.k2.max()
    with np.errstate(over="ignore"):
        demoted = tau_q == 0.0 or not (
            np.isfinite(stiff_max / tau_q)
            and np.isfinite(alpha * table.k2.max() / tau_q))
    assert np.isfinite(table.slow).all()
    for i in range(table.nmodes):
        k2 = table.k2[i]
        if demoted:
            assert table.regime[i] == DIFFUSIVE
            assert table.classical
            continue
        disc = (1.0 + alpha * tau_T * k2) ** 2 - 4.0 * alpha * tau_q * k2
        if disc > 0.0:
            assert table.regime[i] == OVERDAMPED
        elif disc < 0.0:
            assert table.regime[i] == OSCILLATORY
        else:
            assert table.regime[i] == CRITICAL
