import math

import pytest

from phasecert.exceptions import BoundaryFlatnessError, SingularAxisError
from phasecert.grammar import parse_expr
from phasecert.phase import (BOUNDARY_PHASE_TOL, GeneratingPhase,
                             boundary_flat, check_nondegeneracy,
                             normal_coeffs)
from phasecert.runner import load_scenario
from phasecert.sgphase import StarPhaseFamily

from oracles import sample_array


def test_boundary_phase_rejects_xi_n_dependence():
    # x_n shifted off the boundary: psi(x', 0, xi) keeps a xi_n term,
    # -0.1 (xi_n - 1), at most 0.4 at the sampled xi_n = 5
    psi = "x1*k1 + (xn - 0.1)*kn"
    diag = GeneratingPhase(parse_expr(psi)).boundary_diagnostics
    assert not boundary_flat(diag)
    assert diag["xi_n_residual"] == pytest.approx(0.4, rel=1e-12)
    # the CLI's calibrate and apply, which need the phase, raise on it
    with pytest.raises(BoundaryFlatnessError,
                       match=r"^boundary restriction depends on xi_n "
                             r"\(residual 4.00e-01\)$"):
        load_scenario({"name": "x", "phase": psi}).generating_phase()
    # 0.1 xi' (xi_n - 1) leaves psi_b linear and the zero section 0: the
    # xi_n residual alone, at most 0.1 * 2 * 4, fails the diagnostics
    diag = GeneratingPhase(
        parse_expr("x1*k1 + xn*kn + 0.1*k1*(kn - 1)")).boundary_diagnostics
    assert diag["linearity_residual"] == diag["zero_section_residual"] == 0
    assert diag["xi_n_residual"] == pytest.approx(0.8, rel=1e-12)
    assert not boundary_flat(diag)
    # generating_phase raises on xi_n-dependence alone: a phase whose
    # boundary part is only not linear in xi' fails boundary_flat, but is
    # built
    sc = load_scenario({"name": "x", "phase": "x1*k1 + xn*kn + 0.1*k1*k1"})
    diag = sc.generating_phase().boundary_diagnostics
    assert diag["xi_n_residual"] <= BOUNDARY_PHASE_TOL
    assert not boundary_flat(diag)


def test_nondegeneracy_sign_change_fails():
    # d2 psi / dxn dkn = 1 - 9 xn^2 vanishes at |xn| = 1/3, on the grid
    ph = GeneratingPhase(parse_expr("x1*k1 + xn*kn*(1 - 3*xn^2)"))
    passed, metrics = check_nondegeneracy(ph)
    assert not passed and metrics["sign"] == 0.0
    # at xn = 0 and 1/2 it is 1 and -5/4: above the floor in magnitude,
    # so the sign change alone fails the check
    grid = sample_array([{"x1": 0.0, "xn": xn, "k1": 1.0, "kn": 1.0}
                         for xn in (0.0, 0.5)])
    passed, metrics = check_nondegeneracy(ph, grid)
    assert not passed and metrics["sign"] == 0.0
    assert metrics["min_abs"] == 1.0
    passed, metrics = check_nondegeneracy(ph, grid[:1])
    assert passed and metrics["sign"] == 1.0


def test_normal_coeffs_singular_at_axis():
    # |xi'| alone is not smooth on the rays (xi' = 0, xi_n = +-1)
    ph = GeneratingPhase(parse_expr("x1*k1 + xn*kn + 0.1*xn*norm(k1)"))
    with pytest.raises(SingularAxisError):
        normal_coeffs(ph)


def test_p3_sign_change_is_detected():
    # K far below the dilation factor flips the mixed derivative somewhere
    ph = GeneratingPhase(parse_expr("x1*k1 + xn*kn*exp(sin(x1)/2)"))
    cs = StarPhaseFamily(ph, 0.5, 0.25).constants_at(1.0, math.sqrt(17.0))
    assert cs["eps_sign"] == 0.0
