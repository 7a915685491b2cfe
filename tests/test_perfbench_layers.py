"""The benchmark's layer trace looks functions up by name; keep them there."""

import importlib.util
from pathlib import Path

LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


def test_trace_names_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    for name, modules, attr, *_ in layers.TIMED + layers.COUNTED:
        for module in modules:
            found = getattr(module, attr, None)
            assert callable(found), f"{name}: {module.__name__}.{attr}"
