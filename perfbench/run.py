"""phasecert benchmark: cold time-to-verdict, one fresh interpreter per
scenario, with an outside-in layer trace.

    python3 perfbench/run.py --workload catalog --seed 7 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 7 --seconds 35

Run from the root of a source checkout (the package is imported from
``src/``).  One pass runs every scenario of the workload in turn, each in
its own ``python3 perfbench/worker.py`` process.  A run first runs the
workload's first scenario once, checked but not timed, then makes timed
passes for ``--seconds`` seconds.  With ``--trace 1`` it alternates
untraced and traced passes and reports the per-layer metrics and the
tracing overhead instead of the end-to-end metrics.

Every check execution is checked against the catalog's expected verdict,
and its canonical body against the first pass with the same seed.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are a readable summary.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

from tracer import BOUNDARIES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT = ROOT / ".perfbench_out"

ALL = ("identity", "dilation", "quadratic-collar", "boundary-shear",
       "bad-boundary-shift", "bad-transmission", "bad-symplectic")
POSITIVE = ALL[:4]

# scenarios, check families (None: the scenario's own list), grid preset,
# report bundle written, half-line operator applied
WORKLOADS = {
    "catalog": dict(scenarios=ALL, families=None, grid="default",
                    report=True, truncated=False),
    "pointwise-fine": dict(scenarios=ALL,
                           families=["symplecto", "phase", "generating"],
                           grid="fine", report=False, truncated=False),
    "operator-halfline": dict(scenarios=POSITIVE,
                              families=["phase", "operator", "opsymb"],
                              grid="default", report=False, truncated=True),
}

MIN_TIMED_PASSES = 3
MIN_TRACED_PASSES = 2
WORKER_TIMEOUT_S = 60
# No pass starts after this long, whatever the minimum pass counts.
MAX_MEASURE_S = 100

# Boundaries each workload must reach; every other boundary must record
# no span on it.
CAT, FINE, OPH = "catalog", "pointwise-fine", "operator-halfline"
EVERY = {CAT, FINE, OPH}
EXPECTED_SPANS = {
    "runner.symplecto": {CAT, FINE}, "runner.phase": EVERY,
    "runner.generating": {CAT, FINE}, "runner.sg": {CAT},
    "runner.operator": {CAT, OPH}, "runner.opsymb": {CAT, OPH},
    "runner.load": EVERY, "runner.report": {CAT},
    "grammar.parse": EVERY,
    "expr.evaluate": EVERY, "expr.eval_array": EVERY,
    "expr.differentiate": EVERY, "expr.dag_size": EVERY,
    "expr.substitute": EVERY,
    "symplectic.jacobian": {CAT, FINE},
    "symplectic.collar_samples": {CAT, FINE},
    "phase.nondegeneracy": EVERY, "phase.admissibility": EVERY,
    "phase.normal_coeffs": EVERY, "phase.generating": {CAT, FINE},
    "symbols.transmission": EVERY,
    "sgphase.calibrate": {CAT}, "sgphase.uniformity": {CAT},
    "sgphase.constants_at": {CAT},
    "quadrature.adaptive": {CAT, OPH}, "quadrature.cutoff": {OPH},
    "schwartz.ft": {CAT, OPH}, "schwartz.half_ft": {OPH},
    "schwartz.ft_radius": {CAT, OPH},
    "normalop.apply": {CAT, OPH}, "normalop.truncated": {OPH},
    "opsymb.family_build": {CAT, OPH}, "opsymb.outputs": {CAT, OPH},
    "opsymb.transpose": {CAT, OPH}, "opsymb.fit": {CAT, OPH},
}
if set(EXPECTED_SPANS) != {name for name, _, _ in BOUNDARIES}:
    raise RuntimeError("EXPECTED_SPANS must list every traced boundary")
# Per-layer metrics that must read 0 on the named workloads.
EXPECTED_ZEROS = {
    "symplectic.jacobian_calls": {OPH},
    "quadrature.node_evals": {FINE},
    "sgphase.trials": {FINE, OPH},
}

END_TO_END = {"setup_s": "s", "pass_s": "s", "peak_rss_mb": "MB"}

# (metric, unit, source): source is "calls:<boundary>", "self:<boundary>",
# "total:<boundary>" or "count:<counter>"; derived metrics follow below.
LAYER_SOURCES = [
    *[(f"runner.{f}_s", "s", f"total:runner.{f}")
      for f in ("symplecto", "phase", "generating", "sg", "operator",
                "opsymb", "load", "report")],
    ("grammar.parse_calls", "count", "calls:grammar.parse"),
    ("grammar.parse_s", "s", "self:grammar.parse"),
    *[m for f in ("evaluate", "eval_array", "differentiate", "dag_size",
                  "substitute")
      for m in ((f"expr.{f}_calls", "count", f"calls:expr.{f}"),
                (f"expr.{f}_s", "s", f"self:expr.{f}"))],
    ("expr.eval_array_points", "count", "count:expr.eval_array_points"),
    ("expr.nonfinite_values", "count", "count:expr.nonfinite_values"),
    ("symplectic.jacobian_calls", "count", "calls:symplectic.jacobian"),
    ("symplectic.jacobian_s", "s", "self:symplectic.jacobian"),
    ("symplectic.samples", "count", "count:symplectic.samples"),
    *[(f"phase.{f}_s", "s", f"self:phase.{f}")
      for f in ("nondegeneracy", "admissibility", "normal_coeffs",
                "generating")],
    ("symbols.transmission_s", "s", "self:symbols.transmission"),
    ("sgphase.calibrate_calls", "count", "calls:sgphase.calibrate"),
    ("sgphase.calibrate_s", "s", "self:sgphase.calibrate"),
    ("sgphase.trials", "count", "count:sgphase.trials"),
    ("sgphase.uniformity_calls", "count", "calls:sgphase.uniformity"),
    ("sgphase.uniformity_s", "s", "self:sgphase.uniformity"),
    ("sgphase.constants_at_calls", "count", "calls:sgphase.constants_at"),
    ("quadrature.adaptive_calls", "count", "calls:quadrature.adaptive"),
    ("quadrature.adaptive_s", "s", "self:quadrature.adaptive"),
    ("quadrature.node_evals", "count", "count:quadrature.node_evals"),
    ("quadrature.doublings", "count", "count:quadrature.doublings"),
    ("quadrature.cutoff_calls", "count", "calls:quadrature.cutoff"),
    ("quadrature.cutoff_s", "s", "self:quadrature.cutoff"),
    ("quadrature.budget_errors", "count", "count:quadrature.budget_errors"),
    ("schwartz.ft_s", "s", "self:schwartz.ft"),
    ("schwartz.ft_radius_s", "s", "self:schwartz.ft_radius"),
    ("normalop.apply_calls", "count", "calls:normalop.apply"),
    ("normalop.apply_points", "count", "count:normalop.apply_points"),
    ("normalop.apply_s", "s", "self:normalop.apply"),
    ("normalop.truncated_s", "s", "self:normalop.truncated"),
    ("opsymb.family_build_s", "s", "self:opsymb.family_build"),
    ("opsymb.outputs_calls", "count", "calls:opsymb.outputs"),
    ("opsymb.outputs_s", "s", "self:opsymb.outputs"),
    ("opsymb.transpose_s", "s", "self:opsymb.transpose"),
    ("opsymb.fit_calls", "count", "calls:opsymb.fit"),
]
DERIVED_UNITS = {"runner.cpu_s": "s", "expr.points_per_call": "points/call",
                 "sgphase.accept_ratio": "ratio",
                 "quadrature.useful_eval_ratio": "ratio",
                 "trace.overhead": "ratio"}
LAYER_UNITS = {m: u for m, u, _ in LAYER_SOURCES} | DERIVED_UNITS


# ------------------------------------------------------------------ passes

def run_worker(job: dict) -> dict:
    """Launch one scenario process and return its result (or a crash)."""
    job = dict(job, launch=time.perf_counter())
    try:
        proc = subprocess.run([sys.executable, str(WORKER), json.dumps(job)],
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"scenario": job["scenario"], "crash": "timed out"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"scenario": job["scenario"],
                "crash": f"exit {proc.returncode}: {proc.stderr[-400:]}"}
    return json.loads(lines[-1])


def pass_jobs(workload: str, seed: int, index: int, trace: bool) -> list:
    spec = WORKLOADS[workload]
    spans_dir = OUT / "spans" / f"{workload}-seed{seed}"
    if trace:
        spans_dir.mkdir(parents=True, exist_ok=True)
    return [{"scenario": name, "seed": seed, "families": spec["families"],
             "grid": spec["grid"], "truncated": spec["truncated"],
             "out_dir": str(OUT / "reports") if spec["report"] else None,
             "trace": trace,
             "trace_id": f"{workload}/{name}/seed{seed}/pass{index}",
             "spans_path": str(spans_dir / f"pass{index}-{name}.csv.gz")
             if trace else None}
            for name in spec["scenarios"]]


def run_pass(workload: str, seed: int, index: int, trace: bool) -> list:
    return [run_worker(job) for job in pass_jobs(workload, seed, index, trace)]


# ------------------------------------------------------------- correctness

class Oracle:
    """Expected verdicts and pass-to-pass determinism of every check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.reference: dict[tuple[str, str], str] = {}

    def check_pass(self, results: list, tag: str):
        for res in results:
            name = res["scenario"]
            if "crash" in res:
                self.attempted += 1
                self.failed += 1
                self.problems.append(f"{tag} {name}: {res['crash']}")
                continue
            intended = set(res["intended_failures"])
            missing = intended - set(res["checks"])
            if missing:
                self.attempted += len(missing)
                self.failed += len(missing)
                self.problems.append(f"{tag} {name}: intended failures "
                                     f"{sorted(missing)} never ran")
            for check, got in sorted(res["checks"].items()):
                self.attempted += 1
                want = "fail" if check in intended else "pass"
                # downstream checks of an intended failure are skipped
                ok = got["status"] == want or (
                    got["status"] == "skip" and bool(intended))
                ref = self.reference.setdefault((name, check), got["digest"])
                if ref != got["digest"]:
                    ok = False
                    self.problems.append(f"{tag} {name} {check}: result "
                                         "differs from the first pass")
                elif not ok:
                    self.problems.append(f"{tag} {name} {check}: "
                                         f"{got['status']}, expected {want}")
                self.failed += not ok


# ----------------------------------------------------------------- metrics

def pass_totals(passes: list) -> list[float]:
    return [sum(r["pass_s"] for r in p) for p in passes]


def end_to_end(passes: list) -> dict:
    return {"setup_s": statistics.median(r["setup_s"]
                                         for p in passes for r in p),
            "pass_s": statistics.median(pass_totals(passes)),
            "peak_rss_mb": statistics.median(max(r["rss_mb"] for r in p)
                                             for p in passes)}


def merge_traces(results: list) -> dict:
    merged = {k: Counter() for k in ("calls", "self_s", "total_s", "counts")}
    for r in results:
        for key, table in r["trace"].items():
            merged[key].update(table)
    merged["cpu_s"] = sum(r["cpu_s"] for r in results)
    return merged


def layer_metrics(tr: dict) -> dict:
    kinds = {"calls": tr["calls"], "self": tr["self_s"],
             "total": tr["total_s"], "count": tr["counts"]}
    out = {}
    for metric, _, source in LAYER_SOURCES:
        kind, key = source.split(":")
        out[metric] = kinds[kind].get(key, 0)
    calls, counts = tr["calls"], tr["counts"]
    out["runner.cpu_s"] = tr["cpu_s"]
    out["expr.points_per_call"] = (counts["expr.eval_array_points"]
                                   / max(calls["expr.eval_array"], 1))
    out["sgphase.accept_ratio"] = (calls["sgphase.calibrate"]
                                   / max(counts["sgphase.trials"], 1))
    out["quadrature.useful_eval_ratio"] = (
        counts["quadrature.final_round_evals"]
        / max(counts["quadrature.adaptive_evals"], 1))
    return out


def check_trace(workload: str, traced: list, per_pass: list) -> list[str]:
    """Coverage, expected zeros, and identical counts across passes."""
    problems = []
    merged = merge_traces([r for p in traced for r in p])
    for boundary, where in EXPECTED_SPANS.items():
        n = merged["calls"].get(boundary, 0)
        if workload in where and n == 0:
            problems.append(f"coverage: {boundary} recorded no span")
        if workload not in where and n:
            problems.append(f"coverage: {boundary} recorded {n} spans, "
                            "expected none")
    for metric, where in EXPECTED_ZEROS.items():
        if workload in where and any(m[metric] for m in per_pass):
            problems.append(f"expected zero: {metric} = "
                            f"{per_pass[0][metric]}")
    for name in WORKLOADS[workload]["scenarios"]:
        seen = {json.dumps([r["trace"]["calls"], r["trace"]["counts"]],
                           sort_keys=True)
                for p in traced for r in p if r["scenario"] == name}
        if len(seen) > 1:
            problems.append(f"perturbation: {name} counts differ between "
                            "traced passes")
    return problems


# --------------------------------------------------------------- the run

def environment() -> dict:
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), "")
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS")}


def run_workload(workload: str, seed: int, seconds: float,
                 trace: bool) -> dict:
    shutil.rmtree(OUT / "spans" / f"{workload}-seed{seed}",
                  ignore_errors=True)
    oracle = Oracle()
    # the first scenario once, untimed: imports compiled, files cached
    warm = run_worker(pass_jobs(workload, seed, 0, False)[0])
    oracle.check_pass([warm], "warm-up")
    plain, traced = [], []
    start = time.perf_counter()
    index = 1
    longest = 0.0
    while True:
        elapsed = time.perf_counter() - start
        enough = (len(plain) >= MIN_TRACED_PASSES
                  and len(traced) >= MIN_TRACED_PASSES) if trace \
            else len(plain) >= MIN_TIMED_PASSES
        # stop before a pass that would end past --seconds
        if (enough and elapsed + longest > seconds) \
                or elapsed >= MAX_MEASURE_S:
            break
        as_traced = trace and index % 2 == 0
        results = run_pass(workload, seed, index, as_traced)
        longest = max(longest, time.perf_counter() - start - elapsed)
        oracle.check_pass(results, f"pass {index}")
        if any("crash" in r for r in results):
            break
        (traced if as_traced else plain).append(results)
        index += 1
    OUT.mkdir(exist_ok=True)
    (OUT / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps({"plain": plain, "traced": traced}))
    out = {"workload": workload, "seed": seed, "oracle": oracle,
           "problems": list(oracle.problems), "plain": plain}
    if not plain or (trace and not traced):
        out["problems"].append("no complete pass")
        return out
    out["e2e"] = end_to_end(plain)
    if trace:
        per_pass = [layer_metrics(merge_traces(p)) for p in traced]
        layer = {m: statistics.median(p[m] for p in per_pass)
                 for m in per_pass[0]}
        layer["trace.overhead"] = (statistics.median(pass_totals(traced))
                                   / out["e2e"]["pass_s"])
        out["layer"] = layer
        out["problems"] += check_trace(workload, traced, per_pass)
    return out


def summary_lines(res: dict, trace: bool) -> list[str]:
    o = res["oracle"]
    lines = [f"workload {res['workload']} (seed {res['seed']})"]
    if "e2e" in res:
        e, plain = res["e2e"], res["plain"]
        totals = pass_totals(plain)
        q1, q3 = (statistics.quantiles(totals, n=4)[::2] if len(totals) > 1
                  else totals * 2)
        cpu = statistics.median(sum(r["cpu_s"] for r in p) for p in plain)
        lines += [
            f"  setup_s          {e['setup_s']:.4f} s   (median of "
            f"{sum(map(len, plain))} processes)",
            f"  pass_s           {e['pass_s']:.4f} s   (quartiles {q1:.4f} "
            f".. {q3:.4f}, n = {len(totals)} passes)",
            f"  peak_rss_mb      {e['peak_rss_mb']:.1f} MB",
            f"  cpu_s            {cpu:.4f} s   (user+sys of a pass)"]
    frac = o.failed / max(o.attempted, 1)
    lines.append(f"  ops_failed_frac  {frac:.4g} ratio   ({o.failed} of "
                 f"{o.attempted} check executions)")
    if trace and "layer" in res:
        for metric, value in res["layer"].items():
            lines.append(f"  {metric:30s} {value:.6g} {LAYER_UNITS[metric]}")
    lines += [f"  problem: {p}" for p in res["problems"]]
    return lines


def contract_result(res: dict, trace: bool) -> dict:
    o = res["oracle"]
    metrics = {}
    if trace and "layer" in res:
        metrics = {m: {"value": v, "unit": LAYER_UNITS[m]}
                   for m, v in res["layer"].items()}
    elif "e2e" in res:
        metrics = {m: {"value": res["e2e"][m], "unit": u}
                   for m, u in END_TO_END.items()}
    return {"correct": not res["problems"] and o.failed == 0,
            "attempted": o.attempted, "failed": o.failed,
            "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be a non-negative integer")
    if not (ROOT / "src" / "phasecert" / "__init__.py").is_file():
        print(f"error: no phasecert sources under {ROOT / 'src'}; run from "
              "the root of a source checkout", file=sys.stderr)
        return 2
    trace = bool(args.trace)
    print("environment: " + json.dumps(environment(), sort_keys=True))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        res = run_workload(name, args.seed, args.seconds, trace)
        print("\n".join(summary_lines(res, trace)), flush=True)
        results[name] = contract_result(res, trace)
    if args.workload == "all":
        print(json.dumps(results))
    else:
        print(json.dumps(results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
