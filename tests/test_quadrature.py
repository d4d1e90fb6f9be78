import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dpl_heatlab.errors import QuadratureNotConverged
from dpl_heatlab.quadrature import (G7_INDEX, G7_WEIGHTS, K15_WEIGHTS, NODES,
                                    QuadratureSpec, integrate_columns)

SPEC = QuadratureSpec()


def test_rule_weights_normalized():
    assert abs(K15_WEIGHTS.sum() - 2.0) < 1e-14
    assert abs(G7_WEIGHTS.sum() - 2.0) < 1e-14
    # symmetric node layout
    assert np.allclose(NODES, -NODES[::-1], atol=0)
    assert np.allclose(K15_WEIGHTS, K15_WEIGHTS[::-1], atol=0)


@pytest.mark.parametrize("degree", range(14))
def test_gauss_rule_exact_through_degree_13(degree):
    exact = 0.0 if degree % 2 else 2.0 / (degree + 1)
    got = np.dot(G7_WEIGHTS, NODES[G7_INDEX] ** degree)
    assert abs(got - exact) < 1e-14


def test_gauss_rule_not_exact_at_degree_14():
    got = np.dot(G7_WEIGHTS, NODES[G7_INDEX] ** 14)
    assert abs(got - 2.0 / 15.0) > 1e-8


@pytest.mark.parametrize("degree", range(23))
def test_kronrod_rule_exact_through_degree_22(degree):
    exact = 0.0 if degree % 2 else 2.0 / (degree + 1)
    got = np.dot(K15_WEIGHTS, NODES ** degree)
    assert abs(got - exact) < 1e-13


def test_sine_arch():
    total = integrate_columns(np.sin, 0.0, math.pi, SPEC)[0][0]
    assert abs(total - 2.0) < 1e-12


def test_exponential():
    total = integrate_columns(np.exp, 0.0, 1.0, SPEC)[0][0]
    assert abs(total - (math.e - 1.0)) < 1e-12


def test_endpoint_spike_adaptivity():
    # 1/sqrt(x + eps) concentrates all the action near x = 0.
    eps = 1e-4
    total = integrate_columns(lambda x: 1.0 / np.sqrt(x + eps), 0.0, 1.0,
                              SPEC)[0][0]
    exact = 2.0 * (math.sqrt(1.0 + eps) - math.sqrt(eps))
    assert abs(total - exact) < 1e-9 * exact


def test_oscillatory_decaying_integrand():
    a, b, T = 0.2, 3.0, 50.0
    total = integrate_columns(lambda x: np.exp(-a * x) * np.sin(b * x),
                              0.0, T, SPEC)[0][0]
    exact = (b - math.exp(-a * T) * (a * math.sin(b * T)
                                     + b * math.cos(b * T))) / (a * a + b * b)
    assert abs(total - exact) < 1e-10


def test_columns_share_panels_but_not_tolerances():
    def f(ts):
        return np.column_stack([np.sin(ts), 1e6 * np.cos(3.0 * ts)])

    abs_tol = np.array([1e-12, 1e-4])
    totals, errors = integrate_columns(f, 0.0, 2.0, SPEC, abs_tol=abs_tol)
    exact = np.array([1.0 - math.cos(2.0), 1e6 * math.sin(6.0) / 3.0])
    assert abs(totals[0] - exact[0]) < 1e-10
    assert abs(totals[1] - exact[1]) < 1e-2 * abs(exact[1])
    tol = np.maximum(abs_tol, SPEC.rel_tol * np.abs(totals))
    assert (errors <= tol).all()


def test_breakpoint_resolves_kink():
    total = integrate_columns(lambda x: np.abs(x - 1.0 / 3.0), 0.0, 1.0,
                              SPEC, breakpoints=[1.0 / 3.0])[0][0]
    assert abs(total - 5.0 / 18.0) < 1e-14


def test_degenerate_and_reversed_intervals():
    totals, errors = integrate_columns(lambda ts: np.cos(ts)[:, None],
                                       2.0, 2.0, SPEC)
    assert totals.tolist() == [0.0] and errors.tolist() == [0.0]
    with pytest.raises(ValueError):
        integrate_columns(np.cos, 1.0, 0.0, SPEC)


def test_budget_exhaustion_reports_achieved_error():
    spec = QuadratureSpec(abs_tol=1e-30, rel_tol=0.0, max_subintervals=16)
    rough = lambda x: np.abs(x - 0.37) ** -0.9
    with pytest.raises(QuadratureNotConverged) as err:
        integrate_columns(rough, 0.0, 1.0, spec)
    assert err.value.achieved > err.value.requested > 0.0
    assert "budget" in str(err.value)


def test_overflowing_error_ratio_still_splits_to_the_budget():
    # 5e-324 is subnormal: error / tolerance overflows to inf on every panel.
    spec = QuadratureSpec(abs_tol=5e-324, rel_tol=0.0, max_subintervals=16)
    rough = lambda x: np.abs(x - 0.37) ** -0.9
    with pytest.raises(QuadratureNotConverged, match="budget"):
        integrate_columns(rough, 0.0, 1.0, spec)


@pytest.mark.parametrize("field,value", [
    ("abs_tol", 0.0), ("abs_tol", -1.0), ("abs_tol", math.inf),
    ("abs_tol", math.nan), ("rel_tol", -1e-3), ("rel_tol", math.inf),
    ("rel_tol", math.nan), ("max_subintervals", 0),
])
def test_spec_rejects_out_of_domain_values(field, value):
    with pytest.raises(ValueError, match=field):
        QuadratureSpec(**{field: value})


@settings(max_examples=40, deadline=None)
@given(
    coeffs=st.lists(st.floats(-5, 5), min_size=1, max_size=9),
    a=st.floats(-3, 3),
    width=st.floats(0.1, 4),
)
def test_polynomials_integrate_exactly(coeffs, a, width):
    poly = np.polynomial.Polynomial(coeffs)
    b = a + width
    got = integrate_columns(poly, a, b, SPEC)[0][0]
    integ = poly.integ()
    exact = integ(b) - integ(a)
    assert abs(got - exact) <= 1e-9 * (1.0 + abs(exact))


def test_totals_do_not_depend_on_integrand_memory_order():
    # Column gathers such as values[:, idx] come back Fortran-ordered; the
    # same values must integrate to the same bits either way.
    rates = np.linspace(0.1, 30.0, 700)

    def c_order(ts):
        return np.cos(np.outer(ts, rates)) * np.exp(-0.1 * ts)[:, None]

    def f_order(ts):
        return np.asfortranarray(c_order(ts))

    assert f_order(np.linspace(0.0, 1.0, 15)).flags.f_contiguous
    c_totals, _ = integrate_columns(c_order, 0.0, 5.0, SPEC)
    f_totals, _ = integrate_columns(f_order, 0.0, 5.0, SPEC)
    assert np.array_equal(c_totals, f_totals)
