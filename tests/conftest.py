"""Hypothesis profiles and a call counter.

``tier1`` is the default: derandomized, so every run draws the same
examples, with no example database and no deadline; the property tests
add a few seconds to the suite. ``deep`` draws fresh random examples, many
more of them; choose it before changing the engines with::

    HYPOTHESIS_PROFILE=deep PYTHONPATH=src python -m pytest -q tests/test_engine.py

The ``deep`` workflow runs it weekly over ``tests/test_engine.py``,
``tests/test_untimed.py``, ``tests/test_lexer.py`` and
``tests/test_metamorphic.py``.

A test's own ``@settings`` still overrides the profile it names, so a
test that asks for more examples than ``tier1`` gives passes
``examples(n)``: a floor of ``n`` that the profile's count raises.

``count_calls`` counts the calls of a package function, for tests that
pin work counts. ``w4`` builds the ROADMAP's W4 process.
"""

import importlib
import os
import sys
from types import SimpleNamespace

from hypothesis import settings

from mobilemem.ambient import parse_ambient

settings.register_profile("tier1", derandomize=True, database=None, deadline=None, max_examples=100)
settings.register_profile("deep", deadline=None, max_examples=5_000)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "tier1"))


def examples(floor: int) -> int:
    """A property's example count: ``floor``, or the loaded profile's
    count where that is larger."""
    return max(floor, settings.default.max_examples)


def count_calls(monkeypatch, target: str, items: bool = False, when=None) -> SimpleNamespace:
    """Count the calls of ``target``, given as ``"module.attr"`` or
    ``"module.Class.attr"``, made through any name a ``mobilemem`` module
    or a class defined in one binds it to (``walk_tree`` is also
    ``MembraneNode.walk``, say). With ``items``, count the items its
    results yield instead. With ``when``, count only the calls whose
    arguments ``when`` accepts. The count is the returned object's ``n``,
    which a test may reset."""
    module_name, attr = target.rsplit(".", 1)
    owner, path = module_name, []
    while owner not in sys.modules:
        try:
            importlib.import_module(owner)
        except ModuleNotFoundError:
            owner, name = owner.rsplit(".", 1)
            path.insert(0, name)
    owner = sys.modules[owner]
    for name in path:
        owner = getattr(owner, name)
    original = getattr(owner, attr)
    calls = SimpleNamespace(n=0)

    def counting(results):
        for item in results:
            calls.n += 1
            yield item

    def counted(*args, **kwargs):
        if items:
            return counting(original(*args, **kwargs))
        if when is None or when(*args, **kwargs):
            calls.n += 1
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] != "mobilemem":
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, key, counted)
            elif isinstance(value, type) and value.__module__ == name:
                for cls_key, cls_value in list(vars(value).items()):
                    if cls_value is original:
                        monkeypatch.setattr(value, cls_key, counted)
    return calls


def w4(k: int):
    """ROADMAP W4: k independent enter handshakes."""
    return parse_ambient(" | ".join(f"n{i}:9[ in:5 m{i} ] | m{i}:9[ ~in:5 m{i} ]" for i in range(k)))
