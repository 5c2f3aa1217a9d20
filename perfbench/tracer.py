"""Outside-in tracing of phasecert's layer boundaries.

The tracer replaces public functions of the ``phasecert`` modules with
timing wrappers, at every place the function object is bound: because of
``from .x import y``, ``runner.calibrate`` and ``sgphase.calibrate`` are
two bindings of one function, and both must be patched.  No file of the
package is edited.

Each call records a span ``(id, parent, name, start_ns, end_ns)``.  The
spans of one process share its trace id (one scenario of one pass), stay
in memory and are written out by :meth:`Tracer.write_spans` at the end.
Self time is a span's duration minus the time its child spans cover.
Counts (points evaluated, quadrature nodes, calibration trials) are taken
from the arguments and return values at the same boundaries.
"""

from __future__ import annotations

import gzip
import inspect
import sys
import time
from collections import Counter

import numpy as np

# (boundary, module, attribute).  An attribute "Class.method" patches the
# method on the class.  The boundary name is the span name.
BOUNDARIES = [
    ("runner.symplecto", "runner", "ScenarioRunner._run_symplecto"),
    ("runner.phase", "runner", "ScenarioRunner._run_phase"),
    ("runner.generating", "runner", "ScenarioRunner._run_generating"),
    ("runner.sg", "runner", "ScenarioRunner._run_sg"),
    ("runner.operator", "runner", "ScenarioRunner._run_operator"),
    ("runner.opsymb", "runner", "ScenarioRunner._run_opsymb"),
    ("runner.load", "runner", "load_scenario"),
    ("runner.report", "runner", "write_report"),
    ("grammar.parse", "grammar", "parse_expr"),
    ("expr.evaluate", "expr", "evaluate"),
    ("expr.eval_array", "expr", "eval_array"),
    ("expr.differentiate", "expr", "differentiate"),
    ("expr.dag_size", "expr", "dag_size"),
    ("expr.substitute", "expr", "substitute"),
    ("symplectic.jacobian", "symplectic", "jacobian"),
    ("symplectic.collar_samples", "symplectic", "collar_samples"),
    ("phase.nondegeneracy", "phase", "check_nondegeneracy"),
    ("phase.admissibility", "phase", "check_admissibility"),
    ("phase.normal_coeffs", "phase", "normal_coeffs"),
    ("phase.generating", "phase", "check_generating"),
    ("symbols.transmission", "symbols", "check_transmission"),
    ("sgphase.calibrate", "sgphase", "calibrate"),
    ("sgphase.uniformity", "sgphase", "check_uniformity"),
    ("sgphase.constants_at", "sgphase", "StarPhaseFamily.constants_at"),
    ("quadrature.adaptive", "quadrature", "integrate_adaptive"),
    ("quadrature.cutoff", "quadrature", "cutoff_richardson"),
    ("schwartz.ft", "schwartz", "SchwartzFn.ft_values"),
    ("schwartz.half_ft", "schwartz", "SchwartzFn.half_ft_values"),
    ("schwartz.ft_radius", "schwartz", "SchwartzFn.ft_radius"),
    ("normalop.apply", "normalop", "apply_normal_op"),
    ("normalop.truncated", "normalop", "apply_truncated_op"),
    ("opsymb.family_build", "opsymb", "ConjugatedFamily.__init__"),
    ("opsymb.outputs", "opsymb", "ConjugatedFamily.outputs"),
    ("opsymb.transpose", "opsymb", "transpose_check"),
    ("opsymb.fit", "opsymb", "fit_seminorm_ladder"),
]

def _count_eval_array(tr, args, kwargs, out):
    size = int(np.size(out))
    tr.counts["expr.eval_array_points"] += size
    if size:
        tr.counts["expr.nonfinite_values"] += size - int(
            np.count_nonzero(np.isfinite(out)))


def _count_samples(tr, args, kwargs, out):
    tr.counts["symplectic.samples"] += len(out)


def _count_trials(tr, args, kwargs, out):
    tr.counts["sgphase.trials"] += int(out.trials)


def _count_adaptive(tr, args, kwargs, out):
    bound = tr.signatures["quadrature.adaptive"].bind(*args, **kwargs)
    bound.apply_defaults()
    first = int(bound.arguments["n0"]) * int(bound.arguments["order"])
    evals = int(out[2])
    # evals = first * (2^(d+1) - 1) after d doublings; the last round
    # evaluated first * 2^d nodes
    last = (evals + first) // 2
    tr.counts["quadrature.node_evals"] += evals
    tr.counts["quadrature.adaptive_evals"] += evals
    tr.counts["quadrature.final_round_evals"] += last
    tr.counts["quadrature.doublings"] += (last // first).bit_length() - 1


def _count_cutoff(tr, args, kwargs, out):
    tr.counts["quadrature.node_evals"] += int(out[2])


def _count_apply(tr, args, kwargs, out):
    bound = tr.signatures["normalop.apply"].bind(*args, **kwargs)
    tr.counts["normalop.apply_points"] += int(
        np.size(bound.arguments["xn_grid"]))


def _budget_error(tr, err):
    if type(err).__name__ == "QuadratureBudgetError":
        tr.counts["quadrature.budget_errors"] += 1


ON_RESULT = {
    "expr.eval_array": _count_eval_array,
    "symplectic.collar_samples": _count_samples,
    "sgphase.calibrate": _count_trials,
    "quadrature.adaptive": _count_adaptive,
    "quadrature.cutoff": _count_cutoff,
    "normalop.apply": _count_apply,
}
ON_ERROR = {"quadrature.adaptive": _budget_error}


class Tracer:
    """Spans and counters of one process, kept in memory."""

    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        self.spans: list[tuple[int, int, str, int, int]] = []
        self.calls: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.total_ns: Counter = Counter()
        self.counts: Counter = Counter()
        self.signatures: dict[str, inspect.Signature] = {}
        self._stack: list[list[int]] = []   # [span id, child ns]
        self._next_id = 1
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        on_result = ON_RESULT.get(name)
        on_error = ON_ERROR.get(name)
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else 0
            frame = [sid, 0]
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException as err:
                if on_error is not None:
                    on_error(self, err)
                raise
            finally:
                t1 = clock()
                stack.pop()
                self.calls[name] += 1
                self.total_ns[name] += t1 - t0
                self.self_ns[name] += t1 - t0 - frame[1]
                self.spans.append((sid, parent, name, t0, t1))
                if stack:
                    stack[-1][1] += t1 - t0
            if on_result is not None:
                t2 = clock()
                on_result(self, args, kwargs, out)
                if stack:
                    # the counting hook is charged to no layer
                    stack[-1][1] += clock() - t2
            return out

        return traced

    def install(self) -> "Tracer":
        """Patch every boundary at every binding in the loaded package."""
        modules = [m for key, m in list(sys.modules.items())
                   if key.startswith("phasecert.") and m is not None]
        for name, modname, attr in BOUNDARIES:
            owner = sys.modules[f"phasecert.{modname}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(owner, cls_name)
                attr = meth
            fn = getattr(owner, attr)
            self.signatures[name] = inspect.signature(fn)
            wrapper = self._wrap(name, fn)
            self._patch(owner, attr, wrapper)
            if isinstance(owner, type):
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn and mod is not owner:
                        self._patch(mod, key, wrapper)
        return self

    def _patch(self, owner, attr: str, wrapper):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    def summary(self) -> dict:
        """Per-boundary calls, self and inclusive seconds, and counters."""
        return {"calls": dict(self.calls),
                "self_s": {k: v / 1e9 for k, v in self.self_ns.items()},
                "total_s": {k: v / 1e9 for k, v in self.total_ns.items()},
                "counts": dict(self.counts)}

    def write_spans(self, path) -> None:
        """One header line with the trace id, then one span per line."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(f"# trace {self.trace_id}\n"
                     "# span,parent,name,start_ns,end_ns\n")
            fh.writelines(f"{s},{p},{n},{a},{b}\n"
                          for s, p, n, a, b in self.spans)
