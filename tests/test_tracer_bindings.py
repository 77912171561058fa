"""The benchmark tracer's bindings still name live objects.

``perfbench/tracer.py`` wraps econvex functions, methods and cached
properties by name.  A refactor that renames or removes one breaks
``perfbench/run.py --trace 1``; this test catches that in the main suite.
The tracer source is executed from a fresh module object, so nothing is
written next to it.
"""

import types
from functools import cached_property
from pathlib import Path

import econvex.cli  # noqa: F401  (loads every layer the tracer binds)

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    module = types.ModuleType("perfbench_tracer")
    module.__file__ = str(TRACER)
    exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"), module.__dict__)
    return module


def test_every_binding_resolves():
    tracer = load_tracer()
    mods = tracer.econvex_modules()
    boundaries = tracer._boundaries()
    assert boundaries and tracer._COUNTED
    for layer, attr, name in boundaries:
        assert layer in mods, name
        owner, _, member = attr.rpartition(".")
        if owner:
            cls = getattr(mods[layer], owner)
            assert member in vars(cls), name
            if member in tracer.PROBLEM_PROPERTIES:
                assert isinstance(vars(cls)[member], cached_property), name
        else:
            assert callable(getattr(mods[layer], attr, None)), name
    for layer, attr, key in tracer._COUNTED:
        assert callable(getattr(mods[layer], attr, None)), key



def test_every_hook_names_a_span():
    """A hook keyed by a span name the tracer never opens would go dead."""
    tracer = load_tracer()
    spans = {name for _, _, name in tracer._boundaries()}
    assert tracer.HOOKS and set(tracer.HOOKS) <= spans, set(tracer.HOOKS) - spans
