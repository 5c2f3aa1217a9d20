import math
import tracemalloc

import numpy as np
import pytest

from phasecert import expr as ex
from phasecert import catalog, normalop, quadrature
from phasecert.catalog import SCENARIOS
from phasecert.grammar import parse_expr
from phasecert.normalop import (NormalOperatorSpec, _integrand_factory,
                                apply_normal_op, apply_truncated_op)
from phasecert.opsymb import ConjugatedFamily, default_t_grid
from phasecert.phase import GeneratingPhase
from phasecert.runner import run_scenario
from phasecert.quadrature import (Oscillatory, cutoff_richardson,
                                  gauss_rule, panel_frame, panel_nodes,
                                  smooth_freq_cutoff)
from phasecert.schwartz import exp_decay, hermite_fn
from phasecert.symbols import SymbolFn

from oracles import (blockwise_panel_sum, cutoff_richardson_separate,
                     dense_values)

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
    return f, normalop.CUTOFF_RADIUS, 1.5 * rate


def halfline_dense(name, xn):
    """The dense formula of halfline_integrand(name, xn), a function of
    the nodes."""
    spec = spec_of(name)
    phi, amp = spec.frozen_phi(), spec.frozen_amplitude()

    def spectrum(nodes):
        return exp_decay().half_ft_values(nodes) / (2.0 * np.pi)

    return lambda nodes: dense_values(phi, amp, xn, nodes, spectrum)


XN = np.linspace(0.05, 3.0, 8)


@pytest.mark.parametrize("name", ["identity", "dilation"])
def test_shared_grid_matches_three_grid_oracle(name):
    f, R, ppu = halfline_integrand(name, XN)
    val, err, _ = cutoff_richardson(f, R, ppu)
    i1, i2, i4, want = cutoff_richardson_separate(halfline_dense(name, XN),
                                                  R, ppu)
    assert np.max(np.abs(val - want)) <= 1e-10
    assert np.max(np.abs(err - np.abs(want - (2.0 * i4 - i2)))) <= 1e-10


def block_spy(monkeypatch):
    """The (panels, nodes) of every block an Oscillatory sums."""
    seen = []
    real = Oscillatory._blocks

    def spy(self, mid, half, g):
        for block in real(self, mid, half, g):
            seen.append((range(len(mid))[block[0]], block[1]))
            yield block

    monkeypatch.setattr(Oscillatory, "_blocks", spy)
    return seen


# blocks of 3 panels, of 77 panels and one block at XN's 8 points
@pytest.mark.parametrize("block", [3 * 8 * 12, 77 * 8 * 12, 10**9])
def test_result_does_not_depend_on_block_size(monkeypatch, block):
    f, R, ppu = halfline_integrand("dilation", XN)
    ref, ref_err, ref_evals = cutoff_richardson(f, R, ppu)
    monkeypatch.setattr(quadrature, "BLOCK", block)
    val, err, evals = cutoff_richardson(f, R, ppu)
    assert evals == ref_evals
    assert np.max(np.abs(val - ref)) <= 1e-13
    assert np.max(np.abs(err - ref_err)) <= 1e-13


def test_integrand_sees_each_node_once_in_bounded_chunks(monkeypatch):
    f, R, ppu = halfline_integrand("identity", XN)
    blocks = block_spy(monkeypatch)
    _, _, evals = cutoff_richardson(f, R, ppu)
    seen = [nodes for _, nodes in blocks]
    assert max(len(s) for s in seen) * len(XN) <= quadrature.BLOCK
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


def test_adaptive_floor_is_relative_to_the_largest_output():
    # exp(-x^2) cos(w x) integrates to sqrt(pi) exp(-w^2/4); scaled by
    # 1e7 the round-off of the w = 0 sum (about 1e-9) is above tol at the
    # near-zero outputs, so only a floor set by the largest output lets
    # the scaled integrand stop where the unscaled one does
    w = np.array([0.0, 5.0, 10.0, 20.0])
    want = math.sqrt(math.pi) * np.exp(-w * w / 4.0)
    evals = []
    for scale in (1.0, 1e7):
        val, _, n = quadrature.integrate_adaptive(
            lambda x: scale * np.exp(-x * x) * np.cos(np.outer(w, x)),
            -6.0, 6.0, tol=1e-9)
        assert np.max(np.abs(val / scale - want)) <= 1e-15
        evals.append(n)
    assert evals[0] == evals[1]


def test_operator_with_a_large_constant_amplitude_converges():
    # the 241-point l2_bound quadrature of a 1e7 amplitude used to run out
    # of doublings; it now converges, and the check fails on its norms
    sc = catalog.emit("dilation")
    sc["amplitude"] = dict(sc["amplitude"], expr="10000000")
    rep = run_scenario(sc, {"phase", "operator"})
    l2 = next(o for o in rep.outcomes if o.check == "operator.l2_bound")
    assert l2.status == "fail"
    assert not l2.message
    assert l2.metrics["output_norm"] > l2.metrics["bound"]
    assert all("QuadratureBudgetError" not in o.message
               for o in rep.outcomes)


def test_dense_path_memory_is_bounded():
    # a non-linear phase at 256 points on 2,048 panels: the whole
    # (points x nodes) grid would take about 190 MB
    sc = SCENARIOS["bad-transmission"]
    phase = GeneratingPhase(parse_expr(sc["phase"]),
                            collar_halfwidth=sc["collar_halfwidth"])
    osc = Oscillatory(NormalOperatorSpec(phase, AMP_ONE).frozen_phi(),
                      parse_expr("1"), {"xn": np.linspace(-3.0, 3.0, 256)})
    assert not osc.linear
    tracemalloc.start()
    try:
        quadrature.integrate_fixed(osc, -40.0, 40.0, 2048)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, f"peak {peak / 2**20:.1f} MB"


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


# ------------------------------------------------------- oscillation kernel

POSITIVE = ["identity", "dilation", "quadratic-collar", "boundary-shear"]
KERNEL_XN = np.linspace(-3.0, 3.0, 13)


def kernel_grid():
    """Panel frame on [-40, 40] and three weight columns: Gauss weights
    times the cutoff at radii 5, 10 and 20."""
    mid, half = panel_frame(-40.0, 40.0, 160)
    g = gauss_rule(12)[0]
    nodes, weights = panel_nodes(-40.0, 40.0, 160, 12)
    W = np.stack([weights * smooth_freq_cutoff(nodes, r)
                  for r in (5.0, 10.0, 20.0)], axis=-1)
    return mid, half, g, nodes, W.reshape(160, 12, 3)


def assert_close(got, want):
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.fixture
def complex_exp_sizes(monkeypatch):
    """Sizes of the complex arrays passed to np.exp while the test runs."""
    sizes = []
    real_exp = np.exp

    def spy(x, *args, **kwargs):
        if np.iscomplexobj(x):
            sizes.append(np.size(x))
        return real_exp(x, *args, **kwargs)

    monkeypatch.setattr(np, "exp", spy)
    return sizes


@pytest.mark.parametrize("name", POSITIVE)
def test_factored_kernel_matches_dense_sum(name, complex_exp_sizes):
    # each positive phase with its scenario's xi_n-free amplitude
    phi = spec_of(name).frozen_phi()
    amp = parse_expr(SCENARIOS[name]["amplitude"]["expr"])
    ft = hermite_fn(2).ft_values
    mid, half, g, nodes, W = kernel_grid()
    osc = Oscillatory(phi, amp, {"xn": KERNEL_XN}, spectrum=ft)
    assert osc.linear and osc.scaled == [0]
    got = osc.panel_sum(mid, half, g, W)
    assert max(complex_exp_sizes) <= len(KERNEL_XN) * len(mid)
    want = dense_values(phi, amp, KERNEL_XN, nodes, ft) @ W.reshape(-1, 3)
    assert got.shape == (len(KERNEL_XN), 1, 3)
    assert_close(got[:, 0], want)
    b = hermite_fn(1)(KERNEL_XN)
    assert_close(osc.point_sum(b, mid, half, g),
                 b @ dense_values(phi, amp, KERNEL_XN, nodes, ft))


def kernel_spy(monkeypatch):
    """The number of (points x nodes) kernels an Oscillatory forms."""
    calls = []
    real = Oscillatory._kernel
    monkeypatch.setattr(Oscillatory, "_kernel",
                        lambda self, *a: calls.append(1) or real(self, *a))
    return calls


# (amplitude, how it is summed): one in xi_n alone is a weight column of
# the factored sum, one in x_n and xi_n is summed on the dense kernel
XI_AMPLITUDES = [("bracket(kn)^(-2)", "columns"),
                 ("cos(kn)/bracket(kn)", "columns"),
                 ("xn*kn/bracket(kn)", "dense")]


@pytest.mark.parametrize("amp,kind", XI_AMPLITUDES,
                         ids=[amp for amp, _ in XI_AMPLITUDES])
def test_linear_phase_with_xi_dependent_amplitude(monkeypatch, amp, kind,
                                                  complex_exp_sizes):
    phi = spec_of("dilation").frozen_phi()
    amp = parse_expr(amp)
    mid, half, g, nodes, W = kernel_grid()
    osc = Oscillatory(phi, amp, {"xn": KERNEL_XN})
    assert osc.linear and getattr(osc, kind) == [0]
    dense = dense_values(phi, amp, KERNEL_XN, nodes)
    n_exps = len(complex_exp_sizes)
    kernels = kernel_spy(monkeypatch)
    assert_close(osc.panel_sum(mid, half, g, W)[:, 0],
                 dense @ W.reshape(-1, 3))
    b = hermite_fn(1)(KERNEL_XN)
    assert_close(osc.point_sum(b, mid, half, g), b @ dense)
    assert max(complex_exp_sizes[n_exps:]) <= len(KERNEL_XN) * len(mid)
    # the factored path forms no (points x nodes) kernel in either sum
    assert len(kernels) == (2 if kind == "dense" else 0)


def bad_transmission_phi() -> ex.Expr:
    """The frozen phase of bad-transmission, which is not linear in xi_n."""
    sc = SCENARIOS["bad-transmission"]
    phase = GeneratingPhase(parse_expr(sc["phase"]),
                            collar_halfwidth=sc["collar_halfwidth"])
    return NormalOperatorSpec(phase, AMP_ONE, 0.3, 1.0).frozen_phi()


def test_nonlinear_phase_takes_the_dense_path(complex_exp_sizes):
    phi = bad_transmission_phi()
    amp = parse_expr("1")
    mid, half, g, nodes, W = kernel_grid()
    osc = Oscillatory(phi, amp, {"xn": KERNEL_XN})
    assert not osc.linear
    got = osc.panel_sum(mid, half, g, W)[:, 0]
    assert max(complex_exp_sizes) == len(KERNEL_XN) * len(nodes)
    assert_close(got, dense_values(phi, amp, KERNEL_XN, nodes)
                 @ W.reshape(-1, 3))


# (phase not linear in xi_n, amplitude, spectrum applied, weight columns)
PANEL_SUM_CASES = {
    "factored": (False, "1", False, 3),
    "factored-one-column": (False, "1", False, None),
    "factored-spectrum": (False, "1", True, 3),
    "xi-dependent-amplitude": (False, "bracket(kn)^(-2)", True, 3),
    "dense": (True, "1", False, 3),
}


@pytest.mark.parametrize("case", PANEL_SUM_CASES)
def test_panel_sum_matches_the_blockwise_contraction(monkeypatch, case):
    # in one block and in blocks of 7 panels, against the dense formula
    # summed block by block; a factored sum contracts its Q nodes once
    # after the last block
    dense, amp, spectrum, cols = PANEL_SUM_CASES[case]
    phi = bad_transmission_phi() if dense \
        else spec_of("dilation").frozen_phi()
    amp = parse_expr(amp)
    mid, half, g, _, W = kernel_grid()
    if cols is None:
        W = W[..., 0]
    spectrum = hermite_fn(2).ft_values if spectrum else None
    osc = Oscillatory(phi, amp, {"xn": KERNEL_XN}, spectrum=spectrum)
    for block in (quadrature.BLOCK, 7 * len(KERNEL_XN) * len(g)):
        monkeypatch.setattr(quadrature, "BLOCK", block)
        got = osc.panel_sum(mid, half, g, W)[:, 0]
        want = blockwise_panel_sum(
            lambda nodes: dense_values(phi, amp, KERNEL_XN, nodes, spectrum),
            mid, half, g, W, max(1, block // (len(KERNEL_XN) * len(g))))
        assert got.shape == want.shape == (len(KERNEL_XN),) + W.shape[2:]
        if osc.linear:
            assert_close(got, want)
        else:
            # the same products, summed in the same order
            assert np.array_equal(got, want)


# one amplitude of each kind in one program: scaled (free of xi_n),
# a weight column (xi_n alone) and dense (x_n and xi_n)
MIXED_AMPLITUDES = ["1", "exp(-xn^2)", "bracket(kn)^(-2)",
                    "xn*kn/bracket(kn)", "cos(xn*kn)"]


@pytest.mark.parametrize("dense", [False, True], ids=["linear", "nonlinear"])
def test_amplitudes_of_one_program_match_the_dense_formula(monkeypatch,
                                                           dense):
    # each amplitude of one Oscillatory, with a spectrum, against the
    # dense formula, in one block and in blocks of 7 panels
    phi = bad_transmission_phi() if dense \
        else spec_of("dilation").frozen_phi()
    amps = [parse_expr(a) for a in MIXED_AMPLITUDES]
    ft = hermite_fn(2).ft_values
    mid, half, g, nodes, W = kernel_grid()
    osc = Oscillatory(phi, ex.Program(amps), {"xn": KERNEL_XN}, spectrum=ft)
    assert (osc.scaled, osc.columns, osc.dense) == ([0, 1], [2], [3, 4])
    for block in (quadrature.BLOCK, 7 * len(KERNEL_XN) * len(g)):
        monkeypatch.setattr(quadrature, "BLOCK", block)
        got = osc.panel_sum(mid, half, g, W)
        assert got.shape == (len(KERNEL_XN), len(amps), 3)
        for j, amp in enumerate(amps):
            assert_close(got[:, j], dense_values(phi, amp, KERNEL_XN, nodes,
                                                 ft) @ W.reshape(-1, 3))


@pytest.mark.parametrize("order", [10, 12])
def test_inner_factor_is_bit_equal_to_one_exponential_per_node(order):
    # the first ceil(Q / 2) exponentials and their conjugates in reverse
    # order, against np.exp on every node, at 2,000 random slopes
    g = gauss_rule(order)[0]
    assert np.array_equal(g[::-1], -g)
    slopes = np.random.default_rng(5).normal(scale=20.0, size=2000)
    osc = Oscillatory(parse_expr("xn*kn"), parse_expr("1"), {"xn": slopes})
    mid, half = panel_frame(-12.0, 12.0, 40)
    inner = next(osc._blocks(mid, half, g))[3]
    assert np.array_equal(inner,
                          np.exp(1j * (half * g)[None, :] * osc.slope))


def test_cutoff_richardson_sums_whole_panels(monkeypatch):
    f, R, ppu = halfline_integrand("dilation", XN)
    blocks = block_spy(monkeypatch)
    val, err, evals = cutoff_richardson(f, R, ppu)
    assert len(blocks) > 1
    assert all(len(nodes) == 12 * len(panels)
               and len(panels) <= quadrature.BLOCK // (len(XN) * 12)
               for panels, nodes in blocks)
    assert sum(len(panels) for panels, _ in blocks) * 12 == evals
    n_blocked = len(blocks)
    monkeypatch.setattr(quadrature, "BLOCK", 10**9)
    one, one_err, _ = cutoff_richardson(f, R, ppu)
    assert [len(panels) for panels, _ in blocks[n_blocked:]] \
        == [evals // 12]
    assert_close(val, one)
    # err is a difference of integrals: its round-off is on their scale
    assert np.max(np.abs(err - one_err)) <= 1e-12 * np.max(np.abs(one))


def test_operators_take_no_dense_exponential_on_a_linear_phase(
        complex_exp_sizes):
    spec = spec_of("dilation")
    xn = np.linspace(0.05, 3.0, 64)
    apply_truncated_op(spec, exp_decay(), xn)
    apply_normal_op(spec, hermite_fn(1), xn)
    # no wider than one block of panels at every point
    assert max(complex_exp_sizes) <= len(xn) * (
        quadrature.BLOCK // (len(xn) * 12))


def test_conjugated_outputs_factor_the_rescaled_phase(complex_exp_sizes):
    family = ConjugatedFamily(spec_of("dilation"), 1, 1, 1)
    u, t = hermite_fn(0), default_t_grid()
    family.outputs([u], rungs=(1.0, 4.0), t_grid=t)
    n_panels = family._panels([u], float(np.max(np.abs(t))))[2]
    assert max(complex_exp_sizes) <= len(t) * n_panels


def test_linear_phase_takes_a_two_level_outer_factor(monkeypatch,
                                                     complex_exp_sizes):
    # one panel sum and one point sum each take ceil(P / B) + B + Q
    # complex exps per point, B = isqrt(P), not P + Q, in one block and
    # in blocks of 7 panels
    phi = spec_of("dilation").frozen_phi()
    mid, half, g, _, W = kernel_grid()
    b = hermite_fn(1)(KERNEL_XN)
    osc = Oscillatory(phi, parse_expr("1"), {"xn": KERNEL_XN})
    n_b = math.isqrt(len(mid))
    bound = len(KERNEL_XN) * (-(-len(mid) // n_b) + n_b + len(g))
    for block in (quadrature.BLOCK, 7 * len(KERNEL_XN) * len(g)):
        monkeypatch.setattr(quadrature, "BLOCK", block)
        n_exps = len(complex_exp_sizes)
        osc.panel_sum(mid, half, g, W)
        assert sum(complex_exp_sizes[n_exps:]) <= bound
        n_exps = len(complex_exp_sizes)
        osc.point_sum(b, mid, half, g)
        assert sum(complex_exp_sizes[n_exps:]) <= bound


@pytest.mark.parametrize("n_panels", [1, 2, 3, 7, 160, 4888])
def test_two_level_outer_factor_matches_one_exponential_per_panel(
        monkeypatch, n_panels):
    # on [-8R, 8R] at R = CUTOFF_RADIUS, in the blocks of panels of
    # cutoff_richardson's 64 points, and whole
    osc = Oscillatory(spec_of("dilation").frozen_phi(), parse_expr("1"),
                      {"xn": np.linspace(0.05, 3.0, 64)})
    edge = 8.0 * normalop.CUTOFF_RADIUS
    mid, half = panel_frame(-edge, edge, n_panels)
    for block in (quadrature.BLOCK, 10**9):
        monkeypatch.setattr(quadrature, "BLOCK", block)
        for panels, _, outer, _ in osc._blocks(mid, half, gauss_rule(12)[0]):
            want = np.exp(1j * (osc.offset + mid[None, panels] * osc.slope))
            assert np.max(np.abs(outer - want)) <= 1e-11


@pytest.mark.parametrize("R", [0.3, 1.0, 3.7, 256.0, 512.0, 1024.0])
def test_compiled_cutoff_is_bit_identical_to_a_fresh_expression(R):
    for ppu in (0.5, 1.5 * 5.0 / (2.0 * math.pi), 3.0):
        m = max(64, math.ceil(4.0 * R * ppu))
        nodes, _ = panel_nodes(-8.0 * R, 8.0 * R, 4 * m, 12)
        for level in (1.0, 2.0, 4.0):
            fresh = ex.cutoff_expr(ex.quot(ex.var("xi"),
                                           ex.const(2.0 * R * level)))
            want = ex.eval_array(fresh, {"xi": nodes})
            assert np.array_equal(smooth_freq_cutoff(nodes, R * level),
                                  want)
