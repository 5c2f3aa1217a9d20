import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import phasecert
from phasecert import catalog
from phasecert.cli import main
from phasecert.exceptions import (BoundaryPreservationError,
                                  CalibrationError, CollarBoundsError,
                                  NodeBudgetError, NonIntegerDegreeError,
                                  QuadratureBudgetError, RegressionError,
                                  ScenarioParseError,
                                  ScenarioValidationError,
                                  SingularAxisError, SingularLocusError,
                                  UnknownScenarioError)
from phasecert.runner import (PREREQUISITES, check_golden, csv_bundle,
                              load_scenario, render_report, run_scenario)


def test_catalog_has_seven_names():
    assert len(catalog.names()) == 7
    assert set(catalog.names()) == {
        "identity", "dilation", "quadratic-collar", "boundary-shear",
        "bad-boundary-shift", "bad-transmission", "bad-symplectic"}


def test_catalog_emit_identity_phase_string():
    sc = catalog.emit("identity")
    assert sc["phase"] == "x1*k1 + xn*kn"
    assert sc["n"] == 2


def test_catalog_emit_unknown():
    with pytest.raises(UnknownScenarioError):
        catalog.emit("nope")


def test_catalog_emit_is_deep_copy():
    a = catalog.emit("dilation")
    a["map"]["x1"] = "mutated"
    assert catalog.emit("dilation")["map"]["x1"] == "x1"


def test_load_scenario_validation_errors():
    from phasecert.exceptions import (ScenarioParseError,
                                      ScenarioValidationError)
    with pytest.raises(ScenarioParseError):
        load_scenario("{not json")
    with pytest.raises(ScenarioValidationError):
        load_scenario({"name": "x", "bogus_key": 1})
    with pytest.raises(ScenarioValidationError):
        load_scenario({"name": "x"})          # neither phase nor map
    with pytest.raises(ScenarioValidationError):
        load_scenario({"name": "x", "phase": "xn*kn",
                       "checks": ["nonsense"]})
    with pytest.raises(ScenarioValidationError,
                       match="support_xn: amplitude support"):
        load_scenario({"name": "x", "phase": "x1*k1 + xn*kn",
                       "amplitude": {"expr": "1", "support_xn": [-2, 2]},
                       "checks": ["phase", "operator"]})
    # a declared box is verified: the amplitude must vanish outside it,
    # and an inverted box holds nothing
    dilation = catalog.emit("dilation")
    for box, message in (([-0.5, 0.5], r"is not 0 at x_n = -1, outside"),
                         ([0.5, -0.5], r"support \[0.5, -0.5\] is empty")):
        dilation["amplitude"] = {"expr": "1", "order": 0.0,
                                 "support_xn": box}
        with pytest.raises(ScenarioValidationError,
                           match="support_xn: .*" + message):
            load_scenario(dilation)
    # the collar cutoff of quadratic-collar vanishes for |x_n| >= 0.5
    dilation["amplitude"] = catalog.emit("quadratic-collar")["amplitude"]
    assert load_scenario(dilation).amplitude.support[1] == (-0.5, 0.5)
    # a misspelt amplitude key would leave the degree undeclared
    with pytest.raises(ScenarioValidationError,
                       match="unknown amplitude keys {'homogenous_degree'}"):
        load_scenario({"name": "x", "phase": "x1*k1 + xn*kn",
                       "amplitude": {"expr": "1", "order": 0.0,
                                     "homogenous_degree": 0.0}})
    with pytest.raises(ScenarioValidationError,
                       match="amplitude needs an expr"):
        load_scenario({"name": "x", "phase": "x1*k1 + xn*kn",
                       "amplitude": {"order": 0.0,
                                     "homogeneous_degree": 0.0}})
    # k above half the collar half-width: no cutoff vanishes in the collar
    with pytest.raises(ScenarioValidationError,
                       match="sg.k = 0.9 exceeds half the collar half-width"):
        load_scenario({"name": "x", "phase": "x1*k1 + xn*kn",
                       "sg": {"k": 0.9, "K": 1.0}, "checks": ["phase", "sg"]})


def test_run_identity_via_api_passes():
    rep = run_scenario(catalog.emit("identity"))
    assert rep.passed
    assert not rep.failed


# dilation with its amplitude replaced, run with the phase, operator and
# opsymb families: (expression, order, homogeneous degree, failing checks)
AMPLITUDE_EDITS = [
    # three times the identity's amplitude: over the L2 bound
    ("3", 0, 0, ["operator.l2_bound"]),
    # even on the xi_n rays, where degree 1 needs odd, and at least 1
    ("norm(k1,kn)", 1, 1, ["operator.amplitude_transmission",
                           "operator.l2_bound"]),
    # bounded, but no symbol of order 0: its xi_n-derivative does not decay
    ("sin(40*kn)", 0, None, ["opsymb.order_fit"]),
    # homogeneous of degree 1/2: no parity to test, a failure, not an error
    ("sqrt(norm(k1,kn))", 0.5, 0.5, ["operator.amplitude_transmission"]),
    # growing without bound in xn*kn: no L2 bound, and the transpose
    # pairing misses
    ("exp(xn*kn)", 0, None, ["operator.l2_bound", "opsymb.transpose"]),
    # faster than any power of xi_n: non-finite outputs, and the transpose
    # pairing's quadrature runs out of its pair budget
    ("exp(xn*kn*kn)", 0, None, ["operator.l2_bound", "operator.linearity",
                                "opsymb.order_fit", "opsymb.transpose"]),
]

# edits that fail the sign, flatness and fiber-linearity tests: the
# verdict test below reads the metrics that show each failure
SIGN_CHANGE = "x1*k1 + xn*kn*(1 - 3*xn^2)"
XI_N_SHIFT = "x1*k1 + (xn - 0.1)*kn"
FIBER_SHEAR = "x1 + 0.3*k1*k1"

# dilation's phase replaced, with no map and the phase family only:
# (phase, failing checks)
PHASE_EDITS = [
    # degree 2 in the covariables near xi' = 0: admissibility, which
    # presupposes homogeneity, is skipped
    ("x1*k1 + xn*kn*exp(sin(x1)/2) + 0.01*xn*xn*kn*kn/bracket(k1)",
     ["phase.homogeneity"]),
    # psi at xn = 0 is not linear in xi'
    ("x1*k1 + xn*kn + 0.1*k1*k1", ["phase.boundary_phase"]),
    # d2 psi / dxn dkn = x1^2 + 1e-4 is 1e-4 at x1 = 0, below the floor
    ("x1*k1 + xn*kn*(x1*x1 + 0.0001)", ["phase.nondegeneracy"]),
    # d2 psi / dxn dkn = 1 - 9*xn^2 changes sign at |xn| = 1/3
    (SIGN_CHANGE, ["phase.nondegeneracy"]),
    # psi at xn = 0 keeps the xi_n term -0.1*kn
    (XI_N_SHIFT, ["phase.boundary_phase"]),
]

# a catalog map with one component replaced, run with the symplecto
# family: (scenario, component, expression, failing checks)
MAP_EDITS = [
    # a constant fiber translation: still symplectic, but k1 is no longer
    # homogeneous of degree 1
    ("dilation", "k1", "k1 + xn*kn*(cos(x1)/2) + 0.01",
     ["symplecto.homogeneity"]),
    # a shear in (x1, k1): symplectic, but x1 is not homogeneous of degree
    # 0, and the boundary map is not linear in the fiber
    ("identity", "x1", FIBER_SHEAR,
     ["symplecto.boundary_map", "symplecto.homogeneity"]),
]

# identity's map with another catalog scenario's phase, run with the
# symplecto, phase and generating families: (phase's scenario, failing
# checks)
GENERATING_EDITS = [
    # dilation's phase generates dilation's map, not the identity
    ("dilation", ["phase.generating"]),
]

# the errors that mean a check could not be evaluated: a failed check
# that carries no metrics must name one of them
EVALUATION_ERRORS = tuple(f"{e.__name__}: " for e in (
    BoundaryPreservationError, NonIntegerDegreeError, CollarBoundsError,
    SingularLocusError, SingularAxisError, NodeBudgetError,
    RegressionError, CalibrationError, QuadratureBudgetError))


def assert_fails_exactly(rep, intended, label):
    """rep fails exactly the intended checks and errors none; each failed
    check carries metrics, or names an evaluation error."""
    assert sorted(rep.failed) == sorted(intended), label
    assert not rep.errored, label
    for o in rep.outcomes:
        if o.status == "fail":
            assert o.metrics or o.message.startswith(EVALUATION_ERRORS), (
                label, o.check, o.message)


def test_negative_scenarios_fail_exactly_their_checks():
    cases = {
        "bad-boundary-shift": ["symplecto.boundary_preserving"],
        "bad-symplectic": ["symplecto.symplectic"],
        "bad-transmission": ["phase.admissibility", "phase.normal_coeffs"],
    }
    for name, intended in cases.items():
        rep = run_scenario(catalog.emit(name))
        assert_fails_exactly(rep, intended, name)
    for expr, order, degree, intended in AMPLITUDE_EDITS:
        sc = catalog.emit("dilation")
        sc["amplitude"] = {"expr": expr, "order": order,
                           "homogeneous_degree": degree}
        rep = run_scenario(sc, {"phase", "operator", "opsymb"})
        assert_fails_exactly(rep, intended, expr)
    for phase, intended in PHASE_EDITS:
        sc = catalog.emit("dilation")
        sc["phase"] = phase
        del sc["map"]
        sc["checks"] = ["phase"]
        rep = run_scenario(sc)
        assert_fails_exactly(rep, intended, phase)
    for name, component, expr, intended in MAP_EDITS:
        sc = catalog.emit(name)
        sc["map"][component] = expr
        rep = run_scenario(sc, {"symplecto"})
        assert_fails_exactly(rep, intended, expr)
    for name, intended in GENERATING_EDITS:
        sc = catalog.emit("identity")
        sc["phase"] = catalog.emit(name)["phase"]
        rep = run_scenario(sc, {"symplecto", "phase", "generating"})
        assert_fails_exactly(rep, intended, name)
    # K far below dilation's factor exp(sin(x1)/2): P3 loses its sign
    sc = catalog.emit("dilation")
    sc["sg"] = {"k": 0.25, "K": 0.001}
    rep = run_scenario(sc, {"phase", "sg"})
    assert_fails_exactly(rep, ["sg.conditions"], "sg")


def test_verdict_failures_carry_their_residual():
    # each of these failed outcomes is a returned verdict: no message, and
    # the metric that shows the failure
    def failed(sc, families):
        rep = run_scenario(sc, families)
        out = {o.check: o for o in rep.outcomes if o.status == "fail"}
        assert all(o.message == "" for o in out.values())
        return {name: o.metrics for name, o in out.items()}

    def phase_edit(phase):
        sc = catalog.emit("dilation")
        sc["phase"] = phase
        del sc["map"]
        return failed(sc, {"phase"})

    m = phase_edit(SIGN_CHANGE)["phase.nondegeneracy"]
    assert m["sign"] == 0.0
    m = phase_edit(XI_N_SHIFT)["phase.boundary_phase"]
    assert m["xi_n_residual"] == pytest.approx(0.4, rel=1e-12)

    sc = catalog.emit("identity")
    sc["phase"] = catalog.emit("dilation")["phase"]
    m = failed(sc, {"symplecto", "phase", "generating"})["phase.generating"]
    assert m["residual"] > m["tol"] and set(m["worst_point"]) == {
        "x1", "xn", "k1", "kn"}

    sc = catalog.emit("identity")
    sc["map"]["x1"] = FIBER_SHEAR
    m = failed(sc, {"symplecto"})["symplecto.boundary_map"]
    assert m["linearity_residual"] == pytest.approx(4.52, abs=0.01)
    assert m["det_residual"] == 0.0


@pytest.mark.parametrize("grid", ["coarse", "default", "fine"])
@pytest.mark.parametrize("seed", [3, 7, 11])
def test_pointwise_verdicts_stable_across_seeds_and_grids(seed, grid):
    for name in catalog.names():
        rep = run_scenario(catalog.emit(name),
                           {"symplecto", "phase", "generating"},
                           grid_preset=grid, seed=seed)
        want = catalog.SCENARIOS[name].get("intended_failures", [])
        assert sorted(rep.failed) == sorted(want), name
        assert not rep.errored, name


@pytest.mark.parametrize("amp", ["exp(xn*kn*kn)", "exp(xn*kn)", "10000000"])
def test_growing_amplitude_fails_within_memory_and_time(amp, tmp_path):
    # dilation with an amplitude of unbounded growth, families phase,
    # operator and opsymb, fails within 1 GB of address space and 10 s,
    # with no error status and no RuntimeWarning; one BLAS thread keeps
    # the limit independent of the core count
    sc = catalog.emit("dilation")
    sc["amplitude"] = {"expr": amp, "order": 0, "homogeneous_degree": None}
    src = str(Path(phasecert.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(
                   p for p in (src, os.environ.get("PYTHONPATH")) if p))
    # the limit is set in the child before numpy loads, not by a
    # preexec_fn, which is unsafe in a process with BLAS threads
    code = ("import resource, runpy, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))\n"
            "sys.argv[0] = 'phasecert'\n"
            "runpy.run_module('phasecert.cli', run_name='__main__')\n")
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-c", code,
         "verify-opsymb", "--scenario", json.dumps(sc), "--out",
         str(tmp_path)], env=env, capture_output=True, text=True,
        timeout=10)
    assert proc.returncode == 1, proc.stderr
    assert not proc.stderr
    checks = json.loads(
        (tmp_path / "dilation_report.json").read_text())["checks"]
    assert not [c["check"] for c in checks if c["status"] == "error"]
    budget = [c["check"] for c in checks
              if c["message"].startswith("QuadratureBudgetError")]
    assert budget == (["opsymb.transpose"] if amp == "exp(xn*kn*kn)"
                      else [])


def test_checks_leave_numpy_random_unimported():
    src = str(Path(phasecert.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = ("import sys\n"
            "from phasecert import catalog\n"
            "from phasecert.runner import run_scenario\n"
            "rep = run_scenario(catalog.emit('dilation'))\n"
            "print(rep.passed, len(rep.outcomes), "
            "'numpy.random' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True", "18", "False"]


def test_dependency_gating_reports_skips():
    rep = run_scenario(catalog.emit("bad-boundary-shift"))
    by_name = {o.check: o for o in rep.outcomes}
    assert by_name["symplecto.jacobian_structure"].status == "skip"
    assert by_name["symplecto.boundary_map"].status == "skip"


def test_sg_skipped_when_phase_fails():
    rep = run_scenario({
        "name": "gating", "phase": "x1*k1 + xn*kn + 0.1*xn*norm(k1, kn)",
        "checks": ["phase", "sg"],
    })
    by_name = {o.check: o for o in rep.outcomes}
    assert by_name["sg.conditions"].status == "skip"


HOMOGENEITY_FAILS = ("x1*k1 + xn*kn*exp(sin(x1)/2)"
                     " + 0.01*xn*xn*kn*kn/bracket(k1)")
BEHIND_PHASE = ["sg.conditions", "operator.linearity",
                "operator.quadrature_consistency", "operator.l2_bound",
                "opsymb.order_fit", "opsymb.transpose"]

# (scenario fields, status of every check the run records)
GATED_RUNS = {
    # phase.homogeneity fails: admissibility and every check behind the
    # phase invariants get a skip row each
    "homogeneity-fails": (
        {"phase": HOMOGENEITY_FAILS,
         "checks": ["phase", "sg", "operator", "opsymb"]},
        {"phase.boundary_phase": "pass", "phase.homogeneity": "fail",
         "phase.nondegeneracy": "pass", "phase.normal_coeffs": "pass",
         "phase.admissibility": "skip"} | dict.fromkeys(BEHIND_PHASE,
                                                        "skip")),
    # with a declared degree the amplitude's transmission check is
    # selected, and skipped with the rest
    "homogeneity-fails-declared-amplitude": (
        {"phase": HOMOGENEITY_FAILS,
         "amplitude": {"expr": "1", "order": 0.0, "homogeneous_degree": 0.0},
         "checks": ["phase", "operator"]},
        {"phase.boundary_phase": "pass", "phase.homogeneity": "fail",
         "phase.nondegeneracy": "pass", "phase.normal_coeffs": "pass",
         "phase.admissibility": "skip"} | dict.fromkeys(
            ["operator.amplitude_transmission", "operator.linearity",
             "operator.quadrature_consistency", "operator.l2_bound"],
            "skip")),
    # a boundary phase that is not linear in xi' fails without raising:
    # every other phase check needs it
    "boundary-phase-fails": (
        {"phase": "x1*k1 + xn*kn + 0.1*k1*k1", "checks": ["phase"]},
        {"phase.boundary_phase": "fail", "phase.homogeneity": "skip",
         "phase.nondegeneracy": "skip", "phase.normal_coeffs": "skip",
         "phase.admissibility": "skip"}),
}


@pytest.mark.parametrize("case", sorted(GATED_RUNS))
def test_every_gated_check_has_its_own_skip_row(case):
    fields, want = GATED_RUNS[case]
    rep = run_scenario({"name": "gating"} | fields)
    got = {o.check: o.status for o in rep.outcomes}
    assert len(got) == len(rep.outcomes)
    assert got == want
    assert set(got) <= set(PREREQUISITES)
    for o in rep.outcomes:
        if o.status == "skip":
            unmet = [p for p in PREREQUISITES[o.check] if got.get(p) != "pass"]
            assert unmet and o.message == ("unmet prerequisites: "
                                           + ", ".join(unmet))


def test_report_determinism_bytes():
    rep1 = run_scenario(catalog.emit("identity"))
    rep2 = run_scenario(catalog.emit("identity"))
    assert rep1.digest() == rep2.digest()
    b1 = csv_bundle(rep1)
    b2 = csv_bundle(rep2)
    assert set(b1) == set(b2)
    for k in b1:
        assert b1[k] == b2[k], k


def test_csv_p1_table_has_16_rows(tmp_path):
    rep = run_scenario(catalog.emit("dilation"),
                       selector={"phase", "sg"})
    bundle = csv_bundle(rep)
    body = bundle["sg_p1.csv"].decode().strip().splitlines()
    assert body[0] == "a,alpha,constant"
    assert len(body) == 17     # header + 16 constants


def test_render_report_shape():
    rep = run_scenario(catalog.emit("identity"),
                       selector={"symplecto"})
    text = render_report(rep)
    lines = text.splitlines()
    assert lines[0].startswith("scenario: identity")
    assert lines[-2].startswith("result: PASS")
    assert lines[-1].startswith("digest: ")
    assert len(lines) == 2 + 5 + 1   # header + 5 checks + verdict + digest


def test_failing_report_names_failure_first():
    rep = run_scenario(catalog.emit("bad-boundary-shift"))
    text = render_report(rep)
    lines = text.splitlines()
    assert lines[1] == "failing: symplecto.boundary_preserving"


def test_golden_dilation_digest():
    rep = run_scenario(catalog.emit("dilation"))
    res = check_golden(rep)
    assert res["status"] == "match", res


def test_cli_run_exit_codes(tmp_path):
    assert main(["run", "--scenario", "identity",
                 "--out", str(tmp_path)]) == 0
    assert (tmp_path / "identity_report.json").exists()
    assert main(["run", "--scenario", "bad-boundary-shift"]) == 1
    assert main(["run", "--scenario", "does-not-exist"]) == 2


def test_cli_overlong_scenario_name_exits_2(capsys):
    # one path component longer than NAME_MAX: not a file, not a name
    assert main(["run", "--scenario", "x" * 300]) == 2
    assert "neither a file nor a catalog name" in capsys.readouterr().err


def test_cli_directory_scenario_exits_2(tmp_path, capsys):
    assert main(["run", "--scenario", str(tmp_path)]) == 2
    assert "neither a file nor a catalog name" in capsys.readouterr().err


def test_scenario_given_as_json_text():
    # the whole text is one path component longer than NAME_MAX
    text = json.dumps(catalog.emit("identity"))
    assert load_scenario(text).name == "identity"
    assert main(["check-phase", "--scenario", text]) == 0


def test_cli_catalog_and_emit(tmp_path, capsys):
    assert main(["catalog", "list"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 7
    target = tmp_path / "dil.json"
    assert main(["catalog", "emit", "dilation", "--out", str(target)]) == 0
    data = json.loads(target.read_text())
    assert data["map"]["kn"] == "kn*exp(sin(x1)/2)"


def test_cli_emitted_scenario_runs_from_file(tmp_path):
    target = tmp_path / "dil.json"
    main(["catalog", "emit", "dilation", "--out", str(target)])
    assert main(["check-symplecto", "--scenario", str(target)]) == 0


def test_cli_apply_writes_csv(tmp_path):
    assert main(["apply", "--scenario", "identity", "--function", "h0",
                 "--xn-count", "7", "--out", str(tmp_path)]) == 0
    body = (tmp_path / "identity_apply_h0.csv").read_text().splitlines()
    assert body[0] == "xn,re,im,err_est"
    assert len(body) == 8


def test_cli_calibrate_identity(tmp_path, capsys):
    assert main(["calibrate", "--scenario", "identity",
                 "--out", str(tmp_path)]) == 0
    data = json.loads((tmp_path / "identity_calibration.json").read_text())
    assert data["K"] == 1.0 and data["k"] == 0.5


def test_cli_calibrate_reads_scenario_margins(capsys):
    # no (k, K) pair meets eps >= 2, as verify-sg finds on the same file
    sc = catalog.emit("identity")
    sc["margins"] = {"eps_min": 2.0}
    assert main(["calibrate", "--scenario", json.dumps(sc)]) == 2
    assert "CalibrationError" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["calibrate", "apply"])
def test_cli_phase_that_moves_the_boundary_exits_2(command, capsys):
    # no verdict to return: the phase the command needs is refused
    sc = {"name": "shift", "phase": "x1*k1 + (xn - 0.1)*kn"}
    assert main([command, "--scenario", json.dumps(sc)]) == 2
    assert capsys.readouterr().err == (
        "error: BoundaryFlatnessError: boundary restriction depends on "
        "xi_n (residual 4.00e-01)\n")


@pytest.mark.parametrize("argv", [
    ["calibrate", "--grid", "fine"], ["calibrate", "--seed", "3"],
    ["calibrate", "--golden-update"], ["apply", "--margin", "strict"],
    ["apply", "--grid", "fine"], ["apply", "--seed", "3"],
    ["apply", "--golden-update"]], ids=" ".join)
def test_cli_rejects_flags_the_subcommand_does_not_read(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--scenario", "identity"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_cli_report_render(tmp_path, capsys):
    main(["run", "--scenario", "identity", "--out", str(tmp_path)])
    capsys.readouterr()
    assert main(["report", "render",
                 str(tmp_path / "identity_report.json")]) == 0
    out = capsys.readouterr().out
    assert "result: PASS" in out


@pytest.mark.parametrize("argv", [
    ["report", "render", "{tmp}/missing.json"],
    ["report", "render", "{tmp}/no_checks.json"],
    ["apply", "--scenario", "identity", "--xn-count", "0"],
    ["apply", "--scenario", "identity", "--function", "zz*t"],
    ["apply", "--scenario", "identity", "--function", "1"],
    ["apply", "--scenario", "identity", "--xn-max", "inf"],
    ["apply", "--scenario", "identity", "--xn-min", "-inf"],
    ["apply", "--scenario", "identity", "--xprime", "nan"],
    ["apply", "--scenario", "identity", "--xi-prime", "nan"]],
    ids=" ".join)
def test_cli_error_exits_2_with_one_error_line(argv, tmp_path, capsys):
    (tmp_path / "no_checks.json").write_text(json.dumps({"scenario": "x"}))
    try:
        code = main([a.format(tmp=tmp_path) for a in argv])
    except SystemExit as exc:       # argparse rejects a flag value
        code = exc.code
    assert code == 2
    err = capsys.readouterr().err
    assert len([line for line in err.splitlines() if "error:" in line]) == 1


def test_entry_point_installed():
    src = str(Path(phasecert.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-m", "phasecert.cli",
                           "catalog", "list"], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0
    assert "dilation" in proc.stdout


def _edit(key, value):
    sc = catalog.emit("identity")
    head, _, leaf = key.partition(".")
    if leaf:
        sc.setdefault(head, {})[leaf] = value
    else:
        sc[key] = value
    return sc


DEEP_PARENS = "(" * 3000 + "x1" + ")" * 3000


BAD_FIELDS = {
    "seed-string": ("seed", "abc"),
    "seed-fraction": ("seed", 1.5),
    "n-string": ("n", "two"),
    "n-null": ("n", None),
    "n-three": ("n", 3),
    "collar-string": ("collar_halfwidth", "wide"),
    "collar-negative": ("collar_halfwidth", -1.0),
    "collar-zero": ("collar_halfwidth", 0.0),
    "collar-nan": ("collar_halfwidth", float("nan")),
    "collar-inf": ("collar_halfwidth", float("inf")),
    "collar-nan-string": ("collar_halfwidth", "nan"),
    "scale-string": ("grids.scale", "big"),
    "scale-bool": ("grids.scale", True),
    "grids-number": ("grids", 3),
    "amplitude-string": ("amplitude", "1"),
    "amplitude-unknown-key": ("amplitude.homogenous_degree", 0.0,
                              ScenarioValidationError,
                              "unknown amplitude keys"),
    "amplitude-without-expr": ("amplitude", {"order": 0.0},
                               ScenarioValidationError,
                               "amplitude needs an expr"),
    "sg-list": ("sg", [0.5, 1.0]),
    "sg-k-string": ("sg.k", "a", ScenarioValidationError, "sg.k must be a"),
    "sg-K-negative": ("sg.K", -1.0, ScenarioValidationError,
                      "sg.K must be positive"),
    "sg-missing-K": ("sg", {"k": 0.5}, ScenarioValidationError,
                     "exactly the keys k and K"),
    "sg-unknown-key": ("sg.c", 1.0, ScenarioValidationError,
                       "exactly the keys k and K"),
    "sg-k-above-half-collar": ("sg.k", 0.9, ScenarioValidationError,
                               "exceeds half the collar half-width"),
    "checks-string": ("checks", "phase", ScenarioValidationError,
                      "checks must be a list of strings"),
    "checks-number-entry": ("checks", ["phase", 1], ScenarioValidationError,
                            "checks must be a list of strings"),
    "intended-failures-number": ("intended_failures", 5,
                                 ScenarioValidationError,
                                 "intended_failures must be a list"),
    "intended-failures-number-entry": ("intended_failures", [5],
                                       ScenarioValidationError,
                                       "intended_failures must be a list"),
    "support-string": ("amplitude", {"expr": "1", "support_xn": ["a", 1]}),
    "support-outside-collar": ("amplitude",
                               {"expr": "1", "support_xn": [-2, 2]},
                               ScenarioValidationError,
                               "exceeds the collar half-width 1.0"),
    # expression fields; a row may name its error and message pattern
    "phase-number": ("phase", 3),
    "map-number": ("map.xn", 1),
    "amplitude-number": ("amplitude.expr", 1.0),
    "phase-unknown-variable": ("phase", "x1*k1 + xn*kn + zz*xn*kn"),
    "map-unknown-variable": ("map.k1", "k1 + zz*xn"),
    "amplitude-unknown-variable": ("amplitude.expr", "1 + zz"),
    "phase-malformed": ("phase", "x1*k1 + xn*kn +", ScenarioParseError,
                        "phase: unexpected"),
    "map-deep-parentheses": ("map.x1", DEEP_PARENS, ScenarioParseError,
                             "map.x1: expression nests deeper"),
    "phase-deep-minus": ("phase", "-" * 3000 + "x1*k1 + xn*kn",
                         ScenarioParseError,
                         "phase: expression nests deeper"),
    "phase-scientific": ("phase", "x1*k1 + 1e-3*xn*kn", ScenarioParseError,
                         "scientific notation '1e-3'"),
    # a declared homogeneity degree is a statement the loader verifies
    "degree-string": ("amplitude.homogeneous_degree", "0"),
    "degree-false": ("amplitude", {"expr": "1+xn*kn/bracket(k1,kn)",
                                   "order": 0.0, "homogeneous_degree": 0},
                     ScenarioValidationError,
                     "amplitude.homogeneous_degree: declared homogeneity "
                     "degree 0.0 fails"),
    "degree-nonfinite": ("amplitude", {"expr": "exp(1000*kn)", "order": 0.0,
                                       "homogeneous_degree": 0.0},
                         ScenarioValidationError, "residual nan"),
    # lambda^degree overflows: the declaration fails, it does not crash
    "degree-overflow": ("amplitude", {"expr": "1", "order": 0.0,
                                      "homogeneous_degree": 1e6},
                        ScenarioValidationError, "residual nan"),
}


@pytest.mark.parametrize("case", sorted(BAD_FIELDS))
def test_cli_rejects_bad_scenario_field(tmp_path, capsys, case):
    key, value, *want = BAD_FIELDS[case]
    error, pattern = want or (ScenarioValidationError, key.split(".")[-1])
    sc = _edit(key, value)
    with pytest.raises(error, match=pattern):
        load_scenario(sc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(sc))     # NaN and inf as JSON literals
    assert main(["run", "--scenario", str(path)]) == 2
    assert "error:" in capsys.readouterr().err
