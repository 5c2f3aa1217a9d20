import math

import numpy as np
import pytest

from phasecert.schwartz import (SQRT_2PI, catalog, exp_decay, fourier_transform,
                                half_line_ft, hermite_fn,
                                measured_decay_exponent)

from oracles import trapezoid


def test_gaussian_transform_analytic():
    h0 = hermite_fn(0)
    xi = np.linspace(-4, 4, 33)
    got = h0.ft_values(xi)
    want = SQRT_2PI * np.exp(-xi * xi / 2.0)
    assert np.max(np.abs(got - want)) <= 1e-10 * SQRT_2PI


def test_hermite_eigenfunction_property():
    h2 = hermite_fn(2)
    xi = np.linspace(-3, 3, 13)
    got = h2.ft_values(xi)
    want = -SQRT_2PI * h2(xi)       # (-i)^2 = -1
    assert np.max(np.abs(got - want)) <= 1e-9


def test_numeric_vs_analytic_transform_h3():
    h3 = hermite_fn(3)
    xi = np.linspace(-6, 6, 64)
    analytic = h3.ft_values(xi)
    numeric = fourier_transform(h3, xi)
    assert np.max(np.abs(numeric - analytic)) <= 1e-8


def test_numeric_transform_vs_trapezoid_oracle():
    h1 = hermite_fn(1)
    for x in (0.0, 1.2, -2.5):
        want = trapezoid(lambda t: h1(t) * np.exp(-1j * x * t), -30, 30)
        got = fourier_transform(h1, np.array([x]))[0]
        assert abs(got - want) <= 1e-8


def test_half_line_ft_exponential_closed_form():
    u = exp_decay()
    xi = np.concatenate([np.linspace(-100, 100, 41), [0.0]])
    got = half_line_ft(u, xi)
    want = 1.0 / (1.0 + 1j * xi)
    assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-8


def test_half_gaussian_at_zero():
    h0 = hermite_fn(0)
    got = half_line_ft(h0, np.array([0.0]))[0]
    assert got.real == pytest.approx(math.sqrt(math.pi / 2.0), abs=1e-9)
    assert abs(got.imag) <= 1e-9


def test_measured_decay_exponent_first_order():
    u = exp_decay()
    slope, const = measured_decay_exponent(u, 10.0, 1000.0)
    assert slope == pytest.approx(-1.0, abs=0.05)
    assert const == pytest.approx(1.0, abs=0.05)   # |u(0)| = 1


def test_catalog_names():
    c = catalog()
    assert set(c) == {"h0", "h1", "h2", "h3", "h4", "exp-decay"}
