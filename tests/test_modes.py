import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dpl_heatlab as dh
from dpl_heatlab.errors import NegativeElapsed
from dpl_heatlab.modes import (CRITICAL, DIFFUSIVE, OSCILLATORY, OVERDAMPED,
                               build_mode_table, kernel_matrix,
                               kernel_tail_mass)
from dpl_heatlab.quadrature import QuadratureSpec, integrate_columns
from dpl_heatlab.series import mode_coefficients
from helpers import tiny_scenario


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
    assert table.regime[table.index_of(1, 1)] == OSCILLATORY
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


def test_table_sorted_and_indexable():
    table = build_mode_table(tiny_scenario(L=0.5, H=0.4), 6, 5)
    assert table.nmodes == 30
    assert (np.diff(table.k2) >= 0).all()
    for m, n in [(1, 1), (3, 4), (6, 5), (2, 1)]:
        i = table.index_of(m, n)
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


QUAD = QuadratureSpec(abs_tol=1e-13, rel_tol=1e-11)


@pytest.mark.parametrize("regime,damping,splitting,slow", [
    (OVERDAMPED, 0.8, 0.3, 0.5),
    (CRITICAL, 0.7, 0.0, 0.0),
    (DIFFUSIVE, 0.4, 0.0, 0.0),
])
def test_tail_mass_exact_for_monotone_kernels(regime, damping, splitting, slow):
    delta0 = 1.3
    horizon = delta0 + 200.0 / max(slow if regime == OVERDAMPED else damping, 1e-2)
    numeric = integrate_columns(
        lambda d: synthetic_kernel(regime, damping, splitting, slow, d),
        delta0, horizon, QUAD)[0][0]
    mass = kernel_tail_mass(np.array([regime]), np.array([damping]),
                            np.array([splitting]), np.array([slow]),
                            delta0)[0]
    assert math.isclose(numeric, mass, rel_tol=1e-8)


def test_tail_mass_bounds_oscillatory_kernel():
    damping, splitting = 0.35, 2.4
    delta0 = 0.9
    numeric = integrate_columns(
        lambda d: np.abs(synthetic_kernel(OSCILLATORY, damping, splitting, 0.0, d)),
        delta0, delta0 + 200.0 / damping, QUAD)[0][0]
    mass = kernel_tail_mass(np.array([OSCILLATORY]), np.array([damping]),
                            np.array([splitting]), np.array([0.0]), delta0)[0]
    assert numeric <= mass * (1.0 + 1e-9)
    assert mass <= 10.0 * numeric  # not uselessly loose


@settings(max_examples=60, deadline=None)
@given(
    alpha=st.floats(1e-6, 1.0),
    tau_q=st.floats(0.0, 10.0),
    tau_T=st.floats(0.0, 10.0),
)
def test_regime_classification_matches_discriminant(alpha, tau_q, tau_T):
    s = tiny_scenario(alpha=alpha, tau_q=tau_q, tau_T=tau_T)
    table = build_mode_table(s, 3, 3)
    stiff_max = 1.0 + alpha * tau_T * table.k2.max()
    with np.errstate(over="ignore"):
        demoted = tau_q == 0.0 or not np.isfinite(stiff_max / (2.0 * tau_q))
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


# --- folded kernel ----------------------------------------------------------

# One mode per regime, plus near-critical overdamped and oscillatory modes.
FOLD_MODES = {
    "overdamped": (OVERDAMPED, 0.8, 0.3, 0.5),
    "near-critical-overdamped": (OVERDAMPED, 0.7, 1e-9, 0.7 - 1e-9),
    "closer-critical-overdamped": (OVERDAMPED, 0.7, 1e-13, 0.7 - 1e-13),
    "critical": (CRITICAL, 0.7, 0.0, 0.0),
    "oscillatory": (OSCILLATORY, 0.3, 2.0, 0.0),
    "near-critical-oscillatory": (OSCILLATORY, 0.7, 1e-9, 0.0),
    "diffusive": (DIFFUSIVE, 0.4, 0.0, 0.0),
    "slow-diffusive": (DIFFUSIVE, 1.3e-3, 0.0, 0.0),
}


def mode_arrays(*modes):
    return [np.array(col) for col in zip(*modes)]


def test_fold_with_one_copy_is_the_plain_kernel_bitwise():
    args = mode_arrays(*FOLD_MODES.values())
    deltas = np.linspace(0.0, 9.0, 37)
    plain = kernel_matrix(*args, deltas)
    assert np.array_equal(kernel_matrix(*args, deltas, fold=(1.7, 1)), plain)
    assert np.array_equal(kernel_matrix(*args, deltas, fold=None), plain)


@pytest.mark.parametrize("copies", [2, 7, 40])
@pytest.mark.parametrize("name", list(FOLD_MODES))
def test_fold_matches_explicit_sum_of_copies(name, copies):
    args = mode_arrays(FOLD_MODES[name])
    period = 1.7
    deltas = np.linspace(0.0, period, 23)
    folded = kernel_matrix(*args, deltas, fold=(period, copies))[:, 0]
    explicit = sum(kernel_matrix(*args, deltas + i * period)[:, 0]
                   for i in range(copies))
    scale = np.abs(explicit).max()
    assert np.abs(folded - explicit).max() <= 1e-12 * scale


@pytest.mark.parametrize("tau_q,tau_T", [(5.0, 1.0), (2.0, 2.0)])
def test_fold_is_continuous_across_the_critical_bracket(tau_q, tau_T):
    """As in acceptance 08: alpha_crit (1 -/+ 1e-12) brackets the branch.

    The three alphas fall in at least two regimes, with splittings of
    1e-7 and below: overdamped and oscillatory for tau_q = 5, tau_T = 1;
    oscillatory and critical for equal lags, where the discriminant is a
    square and its rounding picks the branch.
    """
    k2 = 2.0 * math.pi ** 2
    a, b = tau_T * tau_T * k2 * k2, 2.0 * tau_T * k2 - 4.0 * tau_q * k2
    alpha_crit = (-b - math.sqrt(b * b - 4.0 * a)) / (2.0 * a)
    bumps = (1.0 - 1e-12, 1.0, 1.0 + 1e-12)
    deltas = np.linspace(0.0, 2.0 * math.pi, 25)
    values, regimes = [], set()
    for bump in bumps:
        s = dh.validate_scenario(dh.PlateScenario(
            L=1.0, H=1.0, T0=0.0, theta=1.0, k=1.0,
            alpha=alpha_crit * bump, tau_q=tau_q, tau_T=tau_T,
            trajectory=dh.Trajectory(kind="circle", A=0.2, B=0.2, w=1.0)))
        tb = build_mode_table(s, 1, 1)
        regimes.add(int(tb.regime[0]))
        values.append(kernel_matrix(tb.regime, tb.damping, tb.splitting,
                                    tb.slow, deltas,
                                    fold=(2.0 * math.pi, 7))[:, 0])
    values = np.array(values)
    jump = (values.max(axis=0) - values.min(axis=0)).max()
    assert len(regimes) >= 2  # the bracket really changes the branch
    assert jump <= 1e-10 * np.abs(values).max()


def test_fold_with_many_copies_and_large_rates_stays_finite():
    modes = [(OVERDAMPED, 50.0, 50.0 - 1e-6, 1e-6), (OVERDAMPED, 60.0, 40.0, 20.0),
             (CRITICAL, 50.0, 0.0, 0.0), (OSCILLATORY, 50.0, 50.0, 0.0),
             (DIFFUSIVE, 50.0, 0.0, 0.0)]
    args = mode_arrays(*modes)
    deltas = np.array([0.0, 0.3, 1.0, 1e4])
    with np.errstate(over="raise", invalid="raise"):
        folded = kernel_matrix(*args, deltas, fold=(1.0, 10_000))
        explicit = kernel_matrix(
            *args, (deltas[None, :] + np.arange(10_000)[:, None]).ravel())
    explicit = explicit.reshape(10_000, deltas.size, len(modes)).sum(axis=0)
    assert np.isfinite(folded).all()
    assert np.allclose(folded, explicit, rtol=1e-10, atol=1e-300)
