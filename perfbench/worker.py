"""One scenario in a fresh interpreter, the way one CLI invocation runs it.

Usage (from run.py): ``python3 perfbench/worker.py '<job json>'``.  The job
names a catalog scenario, the seed, the check families, the grid preset,
and whether to write the report bundle, run the half-line operator, and
trace.  The last line of standard output is one JSON object with the
timings, the resource use, and the verdict and a digest of the canonical
body of every check.

Timings use ``time.perf_counter``, which is CLOCK_MONOTONIC on Linux and
so shared with the parent that recorded the launch instant.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]

# Largest |A+ u - closed form| accepted for the half-line operator on
# x_n in [0.05, 3].  Richardson extrapolation leaves about 1.5e-4 next to
# the jump at x_n = 0; a wrong phase or amplitude gives errors of order 1.
TRUNCATED_TOL = 1e-3
TRUNCATED_CHECK = "bench.truncated_op"


def _digest(obj) -> str:
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _truncated_closed_form(spec, xn):
    """A+ exp(-t) for a phase linear in xi_n and an amplitude free of xi_n:
    a(x_n) exp(i phi(x_n, 0)) exp(-d phi / d xi_n)."""
    from phasecert import expr as ex

    phi, amp = spec.frozen_phi(), spec.frozen_amplitude()
    env = {"xn": xn, "kn": 0.0}

    def at(e):
        return np.broadcast_to(ex.eval_array(e, env), xn.shape)

    return at(amp) * np.exp(1j * at(phi)) \
        * np.exp(-at(ex.differentiate(phi, "kn")))


def main(job: dict) -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    from phasecert import catalog
    from phasecert import runner as rn

    tracer = None
    if job["trace"]:
        from tracer import Tracer
        tracer = Tracer(job["trace_id"]).install()

    sc = rn.load_scenario(catalog.emit(job["scenario"]))
    sc.seed = job["seed"]
    scale = rn.GRID_PRESETS[job["grid"]]
    if job["grid"] == "default" and sc.grid_scale is not None:
        scale = sc.grid_scale
    margins = sc.margins or rn.MARGIN_PRESETS["default"]
    ready = time.perf_counter()
    cpu0 = _cpu_s()

    runner = rn.ScenarioRunner(sc, scale, margins)
    families = job["families"]
    report = runner.run(set(families) if families else None)
    if job["out_dir"]:
        rn.write_report(report, job["out_dir"])
    truncated = None
    if job["truncated"]:
        from phasecert.normalop import apply_truncated_op
        from phasecert.schwartz import exp_decay
        xn = np.linspace(0.05, 3.0, 64)
        vals, err = apply_truncated_op(runner._operator_spec(), exp_decay(),
                                       xn)
        truncated = (xn, vals, err)

    done = time.perf_counter()
    cpu1 = _cpu_s()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()

    checks = {o.check: {"status": o.status, "digest": _digest(o.as_dict())}
              for o in report.outcomes}
    if truncated is not None:
        xn, vals, err = truncated
        gap = float(np.max(np.abs(vals - _truncated_closed_form(
            runner._operator_spec(), xn))))
        ok = bool(np.all(np.isfinite(vals)) and np.all(np.isfinite(err))
                  and gap <= TRUNCATED_TOL)
        checks[TRUNCATED_CHECK] = {
            "status": "pass" if ok else "fail",
            "digest": hashlib.sha256(vals.tobytes() + err.tobytes())
            .hexdigest()}
    out = {"scenario": sc.name,
           "intended_failures": list(sc.intended_failures),
           "setup_s": ready - job["launch"],
           "pass_s": done - ready,
           "cpu_s": cpu1 - cpu0,
           "rss_mb": rss_mb,
           "checks": checks}
    if tracer is not None:
        out["trace"] = tracer.summary()
        if job["spans_path"]:
            tracer.write_spans(job["spans_path"])
    return out


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
