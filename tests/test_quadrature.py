import math
import tracemalloc

import numpy as np
import pytest

from phasecert import quadrature
from phasecert.catalog import SCENARIOS
from phasecert.grammar import parse_expr
from phasecert.normalop import (NormalOperatorSpec, _integrand_factory,
                                apply_truncated_op)
from phasecert.phase import GeneratingPhase
from phasecert.quadrature import cutoff_richardson
from phasecert.schwartz import exp_decay
from phasecert.symbols import SymbolFn

from oracles import cutoff_richardson_separate

AMP_ONE = SymbolFn(parse_expr("1"), order=0.0)


def spec_of(name) -> NormalOperatorSpec:
    sc = SCENARIOS[name]
    phase = GeneratingPhase(parse_expr(sc["phase"]),
                            collar_halfwidth=sc["collar_halfwidth"],
                            name=name)
    return NormalOperatorSpec(phase, AMP_ONE, xprime=0.3, xi_prime=1.0,
                              name=f"{name}-op")


def halfline_integrand(name, xn):
    """The half-line integrand and cutoff parameters apply_truncated_op
    uses for exp_decay on xn."""
    spec = spec_of(name)
    f = _integrand_factory(spec, exp_decay().half_ft_values, xn)
    rate = (np.max(np.abs(xn)) + 2.0) / (2.0 * np.pi)
    return f, spec.quadrature.cutoff_radius, 1.5 * rate


XN = np.linspace(0.05, 3.0, 8)


@pytest.mark.parametrize("name", ["identity", "dilation"])
def test_shared_grid_matches_three_grid_oracle(name):
    f, R, ppu = halfline_integrand(name, XN)
    val, err, _ = cutoff_richardson(f, R, ppu)
    i1, i2, i4, want = cutoff_richardson_separate(f, R, ppu)
    assert np.max(np.abs(val - want)) <= 1e-10
    assert np.max(np.abs(err - np.abs(want - (2.0 * i4 - i2)))) <= 1e-10


@pytest.mark.parametrize("chunk", [100, 777, 10**7])
def test_result_does_not_depend_on_chunk_size(monkeypatch, chunk):
    f, R, ppu = halfline_integrand("dilation", XN)
    ref, ref_err, ref_evals = cutoff_richardson(f, R, ppu)
    monkeypatch.setattr(quadrature, "CHUNK", chunk)
    val, err, evals = cutoff_richardson(f, R, ppu)
    assert evals == ref_evals
    assert np.max(np.abs(val - ref)) <= 1e-13
    assert np.max(np.abs(err - ref_err)) <= 1e-13


def test_integrand_sees_each_node_once_in_bounded_chunks():
    f, R, ppu = halfline_integrand("identity", XN)
    seen = []

    def spy(nodes):
        seen.append(np.array(nodes))
        return f(nodes)

    _, _, evals = cutoff_richardson(spy, R, ppu)
    assert max(len(s) for s in seen) <= quadrature.CHUNK
    nodes = np.concatenate(seen)
    assert len(nodes) == evals
    assert len(np.unique(nodes)) == evals
    assert nodes.min() >= -8.0 * R and nodes.max() <= 8.0 * R


@pytest.mark.parametrize("R,ppu,min_panels,order", [
    (256.0, 1.5 * 5.0 / (2.0 * math.pi), 64, 12),   # rate-bound m
    (2.0, 1.0, 64, 12),                               # min_panels-bound m
    (10.0, 0.3, 8, 7),
])
def test_evals_is_four_m_panels_times_order(R, ppu, min_panels, order):
    m = max(min_panels, math.ceil(4.0 * R * ppu))
    _, _, evals = cutoff_richardson(lambda x: np.exp(-x * x) + 0j, R, ppu,
                                    order=order, min_panels=min_panels)
    assert evals == 4 * m * order


def test_one_dimensional_integrand_keeps_scalar_shape():
    # integral of exp(-x^2) is sqrt(pi); the cutoffs cut nothing
    val, err, _ = cutoff_richardson(lambda x: np.exp(-x * x) + 0j, 8.0, 1.0)
    assert np.shape(val) == () and np.shape(err) == ()
    assert abs(val - math.sqrt(math.pi)) <= 1e-13


def test_truncated_op_memory_is_bounded():
    spec = spec_of("dilation")
    xn = np.linspace(0.05, 3.0, 64)
    tracemalloc.start()
    try:
        apply_truncated_op(spec, exp_decay(), xn)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20, f"peak {peak / 2**20:.1f} MB"
