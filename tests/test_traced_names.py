"""The benchmark's tracer still finds every library name it wraps.

``perfbench/tracing.py`` replaces each function in its ``TARGETS`` (and every
name bound to it by ``from ... import``) with a span-recording wrapper.  A
renamed or deleted function breaks the traced benchmark runs, so this test
installs the tracer on the imported library, checks that every target was
wrapped, uninstalls it and checks that every original is back.
"""

import importlib.util
import sys
from pathlib import Path

import mixcuts.cli  # noqa: F401  (imports every library module)

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def resolve(mod_name: str, attr: str):
    """The object that owns ``attr`` and its last name."""
    owner = sys.modules[f"mixcuts.{mod_name}"]
    path = attr.split(".")
    for part in path[:-1]:
        owner = getattr(owner, part)
    return owner, path[-1]


def library_bindings() -> dict:
    """Every module-level and class-level name of the library, by identity."""
    bindings = {}
    for key, mod in sys.modules.items():
        if key == "mixcuts" or key.startswith("mixcuts."):
            for name, value in vars(mod).items():
                bindings[(key, name)] = value
                if isinstance(value, type) and value.__module__ == key:
                    for attr, member in vars(value).items():
                        bindings[(key, f"{name}.{attr}")] = member
    return bindings


def test_tracer_wraps_every_target_and_restores_every_original():
    tracing = load_tracing()
    before = library_bindings()
    originals = {}
    for mod_name, attr, _, _ in tracing.TARGETS:
        assert f"mixcuts.{mod_name}" in sys.modules, mod_name
        owner, last = resolve(mod_name, attr)
        assert hasattr(owner, last), f"mixcuts.{mod_name}.{attr} is gone"
        originals[mod_name, attr] = getattr(owner, last)

    tracer = tracing.Tracer()
    tracer.install()
    try:
        for (mod_name, attr), original in originals.items():
            owner, last = resolve(mod_name, attr)
            wrapped = getattr(owner, last)
            assert getattr(wrapped, "__wrapped__", None) is original, (mod_name, attr)
    finally:
        tracer.uninstall()

    for (mod_name, attr), original in originals.items():
        owner, last = resolve(mod_name, attr)
        assert getattr(owner, last) is original, (mod_name, attr)
    after = library_bindings()
    changed = [key for key, value in before.items() if after.get(key) is not value]
    assert changed == []
