"""The report digest: blind to round-off, sensitive to every result.

The digest hashes a canonical form of the report body (see the
``phasecert.runner`` docstring).  These tests pin both sides of that
contract: perturbations of the size that BLAS kernels and thread counts
produce leave it unchanged, while a changed verdict, a residual above its
floor, a slope moved by 1e-6 or a NaN in place of a zero all move it.
"""

import copy
import json
import math
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import phasecert
from phasecert import catalog, runner
from phasecert.cli import main
from phasecert.runner import (RunReport, check_golden, digest_floor,
                              render_report, run_scenario)

ROUNDOFF_ABS = 2e-15     # largest round-off seen near 0 across kernels
ROUNDOFF_ULPS = 4


@pytest.fixture(scope="module")
def reports():
    return {name: run_scenario(catalog.emit(name))
            for name in catalog.names()}


# RunReport.digest() of every catalog scenario at its defaults: all
# families, default grid, the scenario's own seed.
CATALOG_DIGESTS = {
    "identity": "72c41aa53301e799e8e806b20d1397e5"
                "e90017cf0f80174ef4fc9b5a696d094a",
    "dilation": "2ca58920bdc481ba6b346c512eab39b3"
                "a01bd485e3bc1b662f44e27a16eee17c",
    "quadratic-collar": "8a89400bdd64272ee3e630fc912e83e2"
                        "6c0ad5030c0e0f1766bea0a1332f491b",
    "boundary-shear": "d5126082b862a3a69965b2c5db693cd5"
                      "729f7020964c1f476a30aaf164b069dd",
    "bad-boundary-shift": "9c989a68487707a142ac34812a7c579f"
                          "752b67c16e32070f475d98aec9d045a2",
    "bad-transmission": "92daafcc00554ba1896d1511ee35d316"
                        "ef03ec6dbbe0de3ed6e0bb79d712cb84",
    "bad-symplectic": "0d8ed060d98f1fb26063f76de3a560a2"
                      "31081a4574cc2494b8604d31f44528ad",
}


@pytest.mark.parametrize("name", sorted(CATALOG_DIGESTS))
def test_catalog_digest_pinned(reports, name):
    assert reports[name].digest() == CATALOG_DIGESTS[name]


def test_every_catalog_digest_is_pinned():
    assert set(CATALOG_DIGESTS) == set(catalog.names())


def _is_tolerance(key) -> bool:
    return isinstance(key, str) and (key in ("tol", "floor")
                                     or key.startswith("tol_"))


def _float_slots(obj):
    """(container, key) for every computed float leaf under obj."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj)
    for key, value in items:
        if isinstance(value, (dict, list)):
            yield from _float_slots(value)
        elif isinstance(value, float) and not _is_tolerance(key):
            yield obj, key


def _copy(report: RunReport) -> RunReport:
    return RunReport(report.scenario, report.seed,
                     copy.deepcopy(report.outcomes), report.environment)


def _outcome(report: RunReport, check: str):
    return next(o for o in report.outcomes if o.check == check)


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_digest_ignores_roundoff(reports, sign):
    for name, rep in reports.items():
        noisy = _copy(rep)
        slots = [s for o in noisy.outcomes for s in _float_slots(o.metrics)]
        assert slots, name
        for box, key in slots:
            x = float(box[key])
            if math.isfinite(x):
                box[key] = x + sign * (ROUNDOFF_ULPS * math.ulp(x)
                                       + ROUNDOFF_ABS)
        assert noisy.digest() == rep.digest(), name


def test_digest_sees_a_flipped_status(reports):
    rep = reports["dilation"]
    for o in rep.outcomes:
        edited = _copy(rep)
        flipped = "fail" if o.status == "pass" else "pass"
        _outcome(edited, o.check).status = flipped
        assert edited.digest() != rep.digest(), o.check


def test_digest_sees_a_residual_above_its_floor(reports):
    rep = reports["dilation"]
    seen = 0
    for o in rep.outcomes:
        res = o.metrics.get("residual")
        if not isinstance(res, float):
            continue
        floor = digest_floor(o.check, o.metrics)
        assert abs(res) < floor, o.check      # dilation is round-off clean
        seen += 1
        below, above = _copy(rep), _copy(rep)
        _outcome(below, o.check).metrics["residual"] = 0.5 * floor
        _outcome(above, o.check).metrics["residual"] = 2.0 * floor
        assert below.digest() == rep.digest(), o.check
        assert above.digest() != rep.digest(), o.check
    assert seen >= 6


def test_worst_point_counts_only_above_the_floor(reports):
    rep = reports["dilation"]
    check = "symplecto.symplectic"
    floor = digest_floor(check, _outcome(rep, check).metrics)

    def moved(residual):
        a, b = _copy(rep), _copy(rep)
        _outcome(a, check).metrics["residual"] = residual
        _outcome(b, check).metrics["residual"] = residual
        _outcome(b, check).metrics["worst_point"]["x1"] += 0.25
        return a.digest() != b.digest()

    assert not moved(_outcome(rep, check).metrics["residual"])
    assert moved(2.0 * floor)


def test_digest_sees_a_slope_moved_by_1e_6(reports):
    seen = 0
    for name in ("dilation", "quadratic-collar"):
        rep = reports[name]
        fits = _outcome(rep, "opsymb.order_fit").metrics["fits"]
        for i, fit in enumerate(fits):
            if fit["slope"] is None:
                continue
            seen += 1
            edited = _copy(rep)
            _outcome(edited, "opsymb.order_fit").metrics["fits"][i][
                "slope"] += 1e-6
            assert edited.digest() != rep.digest(), (name, i)
    assert seen >= 20


def test_digest_sees_nan_in_place_of_zero(reports):
    rep = reports["dilation"]
    zeros = [(o.check, i)
             for o in rep.outcomes
             for i, (box, key) in enumerate(_float_slots(o.metrics))
             if box[key] == 0.0]
    assert len(zeros) >= 10
    for check, i in zeros:
        digests = set()
        for bad in (float("nan"), np.float64("nan"), float("inf"),
                    float("-inf")):
            edited = _copy(rep)
            box, key = list(_float_slots(
                _outcome(edited, check).metrics))[i]
            box[key] = bad
            digests.add(edited.digest())
        assert rep.digest() not in digests, check
        assert len(digests) == 3, check     # nan, inf, -inf all distinct


def test_tolerance_constants_hash_exactly(reports):
    rep = reports["dilation"]
    edited = _copy(rep)
    m = _outcome(edited, "symplecto.symplectic").metrics
    m["tol"] = math.nextafter(m["tol"], 1.0)
    assert edited.digest() != rep.digest()


def test_one_digest_path_and_full_precision(reports, tmp_path, capsys,
                                           monkeypatch):
    rep = reports["dilation"]
    monkeypatch.setattr(runner, "GOLDEN_DIR", tmp_path / "golden")
    out = tmp_path / "reports"
    assert main(["run", "--scenario", "dilation", "--out", str(out),
                 "--golden-update"]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert f"digest: {rep.digest()}" in printed
    assert (tmp_path / "golden" / "dilation.sha256").read_text().strip() \
        == rep.digest()
    assert check_golden(rep)["status"] == "match"
    assert render_report(rep).splitlines()[-1] == f"digest: {rep.digest()}"

    data = json.loads((out / "dilation_report.json").read_text())
    assert data["digest"] == rep.digest()
    # the stored report keeps every value at full precision
    assert data["checks"] == json.loads(json.dumps(rep.body_dict()))["checks"]
    residual = _outcome(rep, "symplecto.symplectic").metrics["residual"]
    stored = {c["check"]: c for c in data["checks"]}
    assert stored["symplecto.symplectic"]["metrics"]["residual"] == residual
    # and re-renders to the same digest
    assert main(["report", "render", str(out / "dilation_report.json")]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == \
        f"digest: {rep.digest()}"


def _dynamic_openblas_x86() -> bool:
    """True when numpy's BLAS is an OpenBLAS built with DYNAMIC_ARCH on
    x86-64, the only case where OPENBLAS_CORETYPE selects a kernel."""
    if platform.machine().lower() not in ("x86_64", "amd64"):
        return False
    try:
        config = np.show_config(mode="dicts")
    except TypeError:                   # numpy < 1.25 has no dict mode
        return False
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return ("openblas" in str(blas.get("name", "")).lower()
            and "DYNAMIC_ARCH" in str(blas.get("openblas configuration", "")))


def _dilation_digest(**env) -> str:
    src = str(Path(phasecert.__file__).resolve().parents[1])
    full = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    full["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)
    full.update(env)
    code = ("from phasecert import catalog\n"
            "from phasecert.runner import run_scenario\n"
            "print(run_scenario(catalog.emit('dilation')).digest())\n")
    proc = subprocess.run([sys.executable, "-c", code], env=full,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


@pytest.mark.skipif(not _dynamic_openblas_x86(),
                    reason="needs numpy on a DYNAMIC_ARCH OpenBLAS, x86-64")
def test_digest_invariant_under_blas_kernel():
    assert _dilation_digest() == \
        _dilation_digest(OPENBLAS_CORETYPE="Sandybridge")
