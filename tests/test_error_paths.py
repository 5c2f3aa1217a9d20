import math

import pytest

from phasecert.exceptions import (BoundaryFlatnessError, SignChangeError,
                                  SingularAxisError)
from phasecert.grammar import parse_expr
from phasecert.phase import (GeneratingPhase, check_nondegeneracy,
                             normal_coeffs)
from phasecert.sgphase import StarPhaseFamily


def test_boundary_phase_rejects_xi_n_dependence():
    # x_n shifted off the boundary: psi(x', 0, xi) keeps a xi_n term
    with pytest.raises(BoundaryFlatnessError):
        GeneratingPhase(parse_expr("x1*k1 + (xn - 0.1)*kn"))


def test_nondegeneracy_sign_change_raises():
    ph = GeneratingPhase(parse_expr("x1*k1 + xn*kn*(1 - 3*xn^2)"))
    with pytest.raises(SignChangeError):
        check_nondegeneracy(ph)


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
