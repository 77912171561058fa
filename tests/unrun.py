"""The functions of ``src/econvex`` that no golden CLI case enters.

Runs every case of ``test_cli_golden.CASES`` and ``ARGV_CASES``
in-process under ``sys.setprofile`` and prints each function or method
of the package whose code no case called, with its line count; names that
``perfbench/tracer.py`` binds (a span or a counted global, read through
``test_tracer_bindings.load_tracer``) are marked ``[tracer]``.  Code that
runs only at import, such as the catalog builders, is listed too: the
profile starts after the package is loaded.  Nothing is written.

    PYTHONPATH=src python tests/unrun.py

``ALLOWED`` gives a reason for each function that the report may list
and the tracer does not bind; ``tests/test_unrun.py`` fails on any other,
and on a name of ``ALLOWED`` that the report does not list untraced: one
that no longer exists in the package, that a golden case now enters or
that the tracer binds.
"""

import ast
import sys
import tempfile
from functools import cached_property
from pathlib import Path

import econvex

import test_cli_golden
from test_tracer_bindings import load_tracer

PACKAGE = Path(econvex.__file__).resolve().parent

_BUILDER = "a catalog builder: runs at import, before the profile starts"
_DUNDER = "a protocol method that no command path calls; tests do"
ALLOWED = {
    "catalog._leq_zero_set": _BUILDER,
    "catalog._geq_zero_set": _BUILDER,
    "catalog._point_set": _BUILDER,
    "catalog._range_grid": _BUILDER,
    "conjugation.DualGrid.__init__": "a grid given point by point: commands build tensor grids",
    "conjugation.DualGrid.__iter__": _DUNDER,
    "conjugation._sup_minus": "the one-column definitional sup behind subdifferential.conjugate_value",
    "esets.EnvelopeFn.attained": "an envelope query that no report prints",
    "extreal.ExtReal.__setattr__": "the immutability guard: only a faulty write enters it",
    "extreal.ExtReal.__hash__": _DUNDER,
    "extreal.ExtReal.backend": "a value's backend for tests and callers; a table reads its own off its keys",
    "extreal.fold_sum": "the extended sum that tests/helpers.evaluate and the acceptance tests check against",
    "funcrep.Grid._index": "the lazy index of a grid built by _of, which no command looks a point up on",
    "funcrep.Grid.__iter__": _DUNDER,
    "funcrep.Expr.sample": "the abstract node method; every node overrides it",
    "funcrep.Affine.of": "a constructor for tests; the loader builds its forms itself",
    "funcrep.Indicator.of": "a constructor for tests; the loader builds its forms itself",
    "funcrep.PerturbFn.sample": "phi as ExtReals at points, behind PerturbFn.value; tables read sample_keys",
    "lagrangian.CLagrangian.table": "the cells as ExtReals; commands read the keys",
    "subdifferential.SubdiffSet.__contains__": _DUNDER,
    "subdifferential._on_grid": "the point lookup of the definitional subgradient routes",
}


def functions():
    """(module, qualname, file, first line, last line) of every ``def`` in
    the package, in source order.  The first line is that of the first
    decorator, as in the function's code object."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem

        def walk(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    out.append((module, prefix + child.name, str(path), first, child.end_lineno))
                    walk(child, f"{prefix}{child.name}.<locals>.")
                elif isinstance(child, ast.ClassDef):
                    walk(child, f"{prefix}{child.name}.")
                else:
                    walk(child, prefix)

        walk(ast.parse(path.read_text(encoding="utf-8"), str(path)), "")
    return out


def entered():
    """(file, first line) of every code object a golden case calls."""
    codes = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    previous = sys.getprofile()
    with tempfile.TemporaryDirectory() as tmp:
        sys.setprofile(profile)  # econvex starts no thread
        try:
            for case in test_cli_golden.CASES:
                test_cli_golden._run(*case, Path(tmp))
            for argv in test_cli_golden.ARGV_CASES:
                test_cli_golden._digests(argv)
        finally:
            sys.setprofile(previous)
    return {(str(Path(c.co_filename).resolve()), c.co_firstlineno) for c in codes}


def tracer_bound():
    """(file, first line) of every function the tracer wraps or counts."""
    tracer = load_tracer()
    mods = tracer.econvex_modules()
    bound = set()
    for layer, attr, _ in list(tracer._boundaries()) + list(tracer._COUNTED):
        obj = mods[layer]
        for part in attr.split("."):
            obj = vars(obj)[part] if isinstance(obj, type) else getattr(obj, part)
        if isinstance(obj, cached_property):
            obj = obj.func
        code = obj.__code__
        bound.add((str(Path(code.co_filename).resolve()), code.co_firstlineno))
    return bound


def report():
    """The report's lines: one per function no case enters, then a total."""
    seen, bound = entered(), tracer_bound()
    lines, spans = [], {}
    for module, name, path, first, last in functions():
        if (path, first) in seen:
            continue
        mark = "  [tracer]" if (path, first) in bound else ""
        lines.append(f"{module}.{name}  {last - first + 1} lines{mark}")
        spans.setdefault(path, set()).update(range(first, last + 1))
    total = sum(map(len, spans.values()))
    marked = sum(line.endswith("[tracer]") for line in lines)
    lines.append(f"{len(lines)} functions ({total} lines) that no golden case enters; "
                 f"{marked} of them bound by the tracer")
    return lines


if __name__ == "__main__":
    print("\n".join(report()))
