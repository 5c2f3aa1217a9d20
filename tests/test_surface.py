"""Surface guard: every definition in src/phasecert is run by the program,
and every field it stores is read.

A top-level function or class, or a non-dunder method, must be referenced
in src/ or perfbench/ outside its own definition, or be named in
ACCEPTANCE_SUBJECTS: the definitions that only an acceptance criterion of
tests/test_acceptance.py calls, because that criterion certifies them.
A reference is a name read, an attribute, or a dotted identifier string
such as the patch targets of perfbench/tracer.py.  Docstrings and import lines
do not count, and neither does a reference from inside a definition that
is itself unreferenced, so a helper that only dead code calls is named
too.

A dataclass field, or a public attribute that a class's __init__ or
__post_init__ sets on self, must be read by the program: an attribute
load of its name in src/ or perfbench/, or a dotted identifier string
naming it in perfbench/ (the patch targets of perfbench/tracer.py).  A
read from tests/ does not count, and neither does a string in src/, where
dict keys such as "rungs" would mask a field of the same name, nor a load
that only receives a MUTATORS call, as report.table in
report.table.append(row): a field that is only filled is not read.  A
load from self inside a class reads that class's field only, so that one
class reading its own field of a name does not mask another class's
field of the same name.  Fields of ACCEPTANCE_SUBJECTS classes are not
exempt: a field that only an acceptance criterion reads is not read by
the program either.

No module of src/ but expr.py reads a private name of expr, as an
attribute of the imported module or by a from-import: the compiled
program is reached through expr.Program.  Tests may still patch them.

Every name the benchmark patches or calls resolves in the loaded package:
the (module, attribute) boundaries of perfbench/tracer.py and the names
perfbench/worker.py calls, so that a rename fails here rather than as a
crashed benchmark worker.
"""

from __future__ import annotations

import ast
import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "phasecert"

ACCEPTANCE_SUBJECTS = (
    "check_bs_membership",       # criterion 7
    "BsReport",                  # criterion 7
    "amp_pair",                  # criterion 7 (ConjugatedFamily)
    "estimate_symbol_order",     # criterion 6
    "measured_decay_exponent",   # criterion 10
)

_DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def _docstrings(tree: ast.AST) -> set[int]:
    """ids of the docstring nodes of a module and its defs."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                out.add(id(body[0].value))
    return out


def _references(tree: ast.AST):
    """(name, line) of every reference in a module."""
    docs = _docstrings(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in docs and _DOTTED.fullmatch(node.value)):
            for part in node.value.split("."):
                yield part, node.lineno


def _definitions(tree: ast.Module):
    """(name, first line, last line) of every top-level function and
    class and every non-dunder method."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if not isinstance(node, defs):
            continue
        yield node.name, node.lineno, node.end_lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, defs[:2])
                        and not (item.name.startswith("__")
                                 and item.name.endswith("__"))):
                    yield item.name, item.lineno, item.end_lineno


def unreferenced() -> list[str]:
    """Definitions in src/ that nothing live references, to a fixed
    point: each round drops the references made from inside the
    definitions found dead so far."""
    files = sorted(SRC.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    trees = {f: ast.parse(f.read_text(), str(f)) for f in files}
    refs = {f: list(_references(t)) for f, t in trees.items()}
    defs = [(f, name, lo, hi) for f in sorted(SRC.glob("*.py"))
            for name, lo, hi in _definitions(trees[f])
            if name not in ACCEPTANCE_SUBJECTS]

    def inside(g, line, spans):
        return any(g == f and lo <= line <= hi for f, _, lo, hi in spans)

    dead: list[tuple] = []
    while True:
        found = [d for d in defs if d not in dead and not any(
            n == d[1] and not inside(g, line, [d, *dead])
            for g, rs in refs.items() for n, line in rs)]
        if not found:
            return [f"{f.stem}.{name} (line {lo})"
                    for f, name, lo, _ in sorted(dead)]
        dead += found


def test_every_definition_is_run_by_the_program():
    missing = unreferenced()
    assert not missing, ("defined in src/ but referenced by neither src/ "
                         "nor perfbench/: " + ", ".join(missing))


def test_acceptance_subjects_are_defined_and_reached_by_the_gate():
    """Each subject is defined in src/, and the acceptance module names it
    or another subject does (as check_bs_membership returns BsReport)."""
    reached = {n for n, _ in _references(
        ast.parse((ROOT / "tests" / "test_acceptance.py").read_text()))}
    defined = set()
    for f in SRC.glob("*.py"):
        tree = ast.parse(f.read_text())
        refs = list(_references(tree))
        for name, lo, hi in _definitions(tree):
            defined.add(name)
            if name in ACCEPTANCE_SUBJECTS:
                reached |= {n for n, line in refs if lo <= line <= hi}
    for name in ACCEPTANCE_SUBJECTS:
        assert name in defined, name
        assert name in reached, name


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(isinstance(d, ast.Name) and d.id == "dataclass"
               or isinstance(d, ast.Call) and isinstance(d.func, ast.Name)
               and d.func.id == "dataclass" for d in node.decorator_list)


def _fields(tree: ast.Module):
    """(class, name, line) of every dataclass field and every public
    attribute that __init__ or __post_init__ sets on self."""
    for node in tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        for item in node.body:
            if (_is_dataclass(node) and isinstance(item, ast.AnnAssign)
                    and isinstance(item.target, ast.Name)):
                yield node.name, item.target.id, item.lineno
            elif (isinstance(item, ast.FunctionDef)
                  and item.name in ("__init__", "__post_init__")):
                for sub in ast.walk(item):
                    if (isinstance(sub, ast.Attribute)
                            and isinstance(sub.ctx, ast.Store)
                            and isinstance(sub.value, ast.Name)
                            and sub.value.id == "self"):
                        yield node.name, sub.attr, sub.lineno


# methods that fill a container without reading it
MUTATORS = ("append", "extend", "update", "add")


def _reads(tree: ast.Module, strings: bool):
    """(class, name) of the attribute loads of a module but those that only
    receive a MUTATORS call, and with strings (None, part) for the parts
    of its dotted identifier strings outside docstrings.  class is the
    enclosing class of a load from self, which reads that class's field
    only, and None for any other load."""
    docs = _docstrings(tree)
    filled = {id(node.func.value) for node in ast.walk(tree)
              if isinstance(node, ast.Call)
              and isinstance(node.func, ast.Attribute)
              and node.func.attr in MUTATORS}
    owner = {id(sub): node.name for node in tree.body
             if isinstance(node, ast.ClassDef) for sub in ast.walk(node)
             if isinstance(sub, ast.Attribute)
             and isinstance(sub.value, ast.Name) and sub.value.id == "self"}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                and id(node) not in filled):
            yield owner.get(id(node)), node.attr
        elif (strings and isinstance(node, ast.Constant)
              and isinstance(node.value, str) and id(node) not in docs
              and _DOTTED.fullmatch(node.value)):
            yield from ((None, part) for part in node.value.split("."))


def unread_fields() -> list[str]:
    read = set()
    for f in sorted(SRC.glob("*.py")):
        read |= set(_reads(ast.parse(f.read_text(), str(f)), strings=False))
    for f in sorted((ROOT / "perfbench").glob("*.py")):
        read |= set(_reads(ast.parse(f.read_text(), str(f)), strings=True))
    return sorted({f"{cls}.{name}" for f in SRC.glob("*.py")
                   for cls, name, _ in _fields(ast.parse(f.read_text()))
                   if not name.startswith("_")
                   and not {(None, name), (cls, name)} & read})


def test_every_stored_field_is_read():
    unread = unread_fields()
    assert not unread, ("stored in src/ but read by neither src/ nor "
                        "perfbench/: " + ", ".join(unread))


def private_expr_reads() -> list[str]:
    """module:line of every read of a private name of expr outside it."""
    out = []
    for f in sorted(SRC.glob("*.py")):
        if f.name == "expr.py":
            continue
        tree = ast.parse(f.read_text(), str(f))
        aliases = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                if node.module in ("expr", "phasecert.expr"):
                    out += [f"{f.stem}:{node.lineno} imports {a.name}"
                            for a in node.names if a.name.startswith("_")]
                elif node.module in (None, "phasecert"):
                    aliases |= {a.asname or a.name for a in node.names
                                if a.name == "expr"}
        out += [f"{f.stem}:{node.lineno} reads {node.value.id}.{node.attr}"
                for node in ast.walk(tree)
                if isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in aliases and node.attr.startswith("_")]
    return out


def test_no_module_reads_a_private_name_of_expr():
    found = private_expr_reads()
    assert not found, ", ".join(found)


# What perfbench/worker.py calls in the package besides the traced
# boundaries, as (module, dotted attribute).
WORKER_CALLS = (
    ("runner", "ScenarioRunner.run"),
    ("runner", "ScenarioRunner._operator_spec"),
    ("catalog", "emit"),
    ("normalop", "apply_truncated_op"),
    ("normalop", "NormalOperatorSpec.frozen_phi"),
    ("normalop", "NormalOperatorSpec.frozen_amplitude"),
    ("schwartz", "exp_decay"),
)


def _tracer_boundaries() -> list:
    """BOUNDARIES of perfbench/tracer.py, read from its source."""
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text())
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets]
                == ["BOUNDARIES"]):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py assigns no BOUNDARIES")


def _resolve(module: str, attr: str):
    obj = importlib.import_module(f"phasecert.{module}")
    for part in attr.split("."):
        assert hasattr(obj, part), f"phasecert.{module}.{attr}"
        obj = getattr(obj, part)
    return obj


def test_benchmark_names_resolve_in_the_package():
    boundaries = [(module, attr) for _, module, attr in _tracer_boundaries()]
    assert boundaries
    for module, attr in boundaries + list(WORKER_CALLS):
        assert callable(_resolve(module, attr)), f"{module}.{attr}"
    # the worker's grid presets ("default", "fine") and margin preset
    assert {"default", "fine"} <= set(_resolve("runner", "GRID_PRESETS"))
    assert "default" in _resolve("runner", "MARGIN_PRESETS")
