"""Command-line front end.

Subcommands:
  catalog list | catalog emit NAME     built-in scenarios
  run             all selected checks for a scenario
  check-symplecto, check-phase         single families
  calibrate, verify-sg                 regularized-phase certification
  apply           sample the normal operator on a grid, CSV out
  verify-opsymb   operator-valued order fits + transpose pairing
  report render FILE                   human-readable view of a report

Exit codes: 0 all selected checks pass, 1 at least one check fails,
2 infrastructure error (bad file, bad flags, internal fault).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import catalog as cat
from .exceptions import PhasecertError, ScenarioParseError, \
    ScenarioValidationError, UnknownScenarioError
from .expr import free_vars
from .grammar import parse_expr
from .normalop import NormalOperatorSpec, apply_normal_op
from .runner import (RunReport, CheckOutcome, check_golden, is_file,
                     jsonable, load_scenario, render_report, run_scenario,
                     scenario_margins, write_report)
from .schwartz import SchwartzFn, catalog as schwartz_catalog
from .sgphase import calibrate


# subcommands that run check families (None: the scenario's own selection)
FAMILY_COMMANDS = {
    "run": (None, "run the scenario's selected checks"),
    "check-symplecto": ({"symplecto"}, "map checks only"),
    "check-phase": ({"phase", "generating"}, "phase checks only"),
    "verify-sg": ({"phase", "sg"}, "regularized-phase conditions"),
    "verify-opsymb": ({"phase", "operator", "opsymb"},
                      "operator-valued order fits"),
}


def _scenario_source(args):
    if args.scenario is None:
        raise ScenarioValidationError("--scenario is required")
    if args.scenario.lstrip().startswith("{"):
        return args.scenario            # JSON text
    if is_file(args.scenario):
        return Path(args.scenario)
    if args.scenario in cat.names():
        return cat.emit(args.scenario)
    raise ScenarioParseError(
        f"{args.scenario!r} is neither a file nor a catalog name")


def _finish(report: RunReport, args) -> int:
    if args.out:
        write_report(report, args.out)
    print(render_report(report))
    if args.golden_update:
        res = check_golden(report, update=True)
        print(f"golden: {res['status']} {res['digest'][:16]}")
    return 0 if report.passed else 1


def cmd_family(args, families) -> int:
    report = run_scenario(_scenario_source(args), families, args.grid,
                          args.margin, seed=args.seed)
    return _finish(report, args)


def cmd_calibrate(args) -> int:
    sc = load_scenario(_scenario_source(args))
    if sc.psi is None:
        raise ScenarioValidationError("calibrate needs a phase")
    cal = calibrate(sc.generating_phase(), scenario_margins(sc, args.margin))
    payload = cal.as_dict()
    payload["scenario"] = sc.name
    text = json.dumps(jsonable(payload), sort_keys=True, indent=1,
                      allow_nan=False)
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / f"{sc.name}_calibration.json").write_text(text)
    print(text)
    return 0


def cmd_apply(args) -> int:
    sc = load_scenario(_scenario_source(args))
    if sc.psi is None:
        raise ScenarioValidationError("apply needs a phase")
    fns = schwartz_catalog()
    if args.function in fns:
        u = fns[args.function]
    else:
        e = parse_expr(args.function)
        if free_vars(e) != {"t"}:
            raise ScenarioValidationError(
                f"--function must be a catalog name or an expression in t, "
                f"got variables {sorted(free_vars(e))}")
        u = SchwartzFn("inline", e)
    spec = NormalOperatorSpec(sc.generating_phase(), sc.operator_amplitude(),
                              xprime=args.xprime, xi_prime=args.xi_prime,
                              name=sc.name)
    xn = np.linspace(args.xn_min, args.xn_max, args.xn_count)
    vals, err = apply_normal_op(spec, u, xn)
    lines = ["xn,re,im,err_est"]
    for i in range(len(xn)):
        lines.append(f"{float(xn[i])!r},{float(vals[i].real)!r},"
                     f"{float(vals[i].imag)!r},{float(err[i])!r}")
    text = "\n".join(lines) + "\n"
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / f"{sc.name}_apply_{u.name}.csv").write_text(text)
    else:
        print(text, end="")
    return 0


def cmd_catalog(args) -> int:
    if args.action == "list":
        for name in cat.names():
            print(name)
        return 0
    payload = cat.emit(args.name)
    text = json.dumps(payload, indent=1, sort_keys=True, allow_nan=False)
    if args.out:
        out = Path(args.out)
        if out.is_dir():
            out = out / f"{args.name}.json"
        out.write_text(text)
    else:
        print(text)
    return 0


def cmd_report(args) -> int:
    try:
        data = json.loads(Path(args.file).read_text())
        outcomes = [CheckOutcome(c["check"], c["status"],
                                 c.get("metrics", {}), c.get("message", ""))
                    for c in data["checks"]]
        text = render_report(RunReport(data["scenario"], data.get("seed", 0),
                                       outcomes, data.get("environment", {})))
    except (OSError, ValueError, KeyError, TypeError) as err:
        print(f"error: {args.file} is not a readable report "
              f"({type(err).__name__}: {err})", file=sys.stderr)
        return 2
    print(text)
    return 0


def positive_int(text: str) -> int:
    """An argparse type: a whole number of at least 1."""
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


def finite_float(text: str) -> float:
    """An argparse type: a finite number."""
    x = float(text)
    if not math.isfinite(x):
        raise argparse.ArgumentTypeError(f"must be finite, got {text}")
    return x


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="phasecert", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, margin=True):
        p.add_argument("--scenario", help="scenario file or catalog name")
        p.add_argument("--out", help="directory for reports and CSVs")
        if margin:
            p.add_argument("--margin", default="default",
                           choices=["default", "strict"])
        return p

    for name, (_, text) in FAMILY_COMMANDS.items():
        p = common(sub.add_parser(name, help=text))
        p.add_argument("--grid", default="default",
                       choices=["coarse", "default", "fine"])
        p.add_argument("--seed", type=int, default=None,
                       help="override the scenario seed")
        p.add_argument("--golden-update", action="store_true",
                       help="re-pin the golden digest for this scenario")
    common(sub.add_parser("calibrate", help="search the cutoff/slope pair"))

    p = common(sub.add_parser("apply", help="sample the normal operator"),
               margin=False)
    p.add_argument("--function", default="h0",
                   help="catalog test function or inline expression in t")
    p.add_argument("--xprime", type=finite_float, default=0.3)
    p.add_argument("--xi-prime", dest="xi_prime", type=finite_float,
                   default=1.0)
    p.add_argument("--xn-min", type=finite_float, default=-3.0)
    p.add_argument("--xn-max", type=finite_float, default=3.0)
    p.add_argument("--xn-count", type=positive_int, default=25)

    p = sub.add_parser("catalog", help="list or emit built-in scenarios")
    p.add_argument("action", choices=["list", "emit"])
    p.add_argument("name", nargs="?")
    p.add_argument("--out")

    p = sub.add_parser("report", help="render a stored report")
    p.add_argument("action", choices=["render"])
    p.add_argument("file")
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        if args.command in FAMILY_COMMANDS:
            return cmd_family(args, FAMILY_COMMANDS[args.command][0])
        if args.command == "calibrate":
            return cmd_calibrate(args)
        if args.command == "apply":
            return cmd_apply(args)
        if args.command == "catalog":
            return cmd_catalog(args)
        if args.command == "report":
            return cmd_report(args)
        raise AssertionError(args.command)
    except (ScenarioParseError, ScenarioValidationError,
            UnknownScenarioError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except PhasecertError as err:
        print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
