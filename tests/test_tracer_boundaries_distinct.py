"""No two of the benchmark tracer's boundaries are one object.

The tracer wraps each boundary it names.  If two names resolve to the same
function (say one is bound as an alias of the other), installing the tracer
wraps that function twice and removing it cannot restore both names.  This
test catches that in the main suite, without running ``perfbench/``.
"""

from test_tracer_bindings import load_tracer


def resolve(mods, layer, attr):
    owner, _, member = attr.rpartition(".")
    if owner:
        return vars(getattr(mods[layer], owner))[member]
    return getattr(mods[layer], attr)


def test_no_two_boundaries_are_the_same_object():
    tracer = load_tracer()
    mods = tracer.econvex_modules()
    names = {}
    for layer, attr, name in tracer._boundaries():
        names.setdefault(id(resolve(mods, layer, attr)), []).append(name)
    assert [group for group in names.values() if len(group) > 1] == []
