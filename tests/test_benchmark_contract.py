"""The benchmark's tracer wraps library functions by name; every name it
lists must exist, and uninstalling must restore every binding."""

import importlib.util
import types
from pathlib import Path

import cluster_dual

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings() -> dict:
    """Every module-level and class-level binding of the library."""
    out = {}
    for name in cluster_dual.__all__:
        mod = getattr(cluster_dual, name)
        if not isinstance(mod, types.ModuleType):
            continue
        out[name] = dict(vars(mod))
        for attr, value in vars(mod).items():
            if isinstance(value, type) and value.__module__ == mod.__name__:
                out[f"{name}.{attr}"] = dict(vars(value))
    return out


def test_tracer_install_uninstall_round_trip():
    before = _bindings()
    tracer = _load_tracing().Tracer()
    try:
        tracer.install(cluster_dual)
        assert cluster_dual.words.is_in_class is not before["words"]["is_in_class"]
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    for key, names in before.items():
        assert after[key].keys() == names.keys(), key
        changed = [attr for attr, value in names.items() if after[key][attr] is not value]
        assert not changed, (key, changed)
