"""The benchmark's per-layer tracer patches names inside the package; a
refactor that renames or moves one of them must fail here, not in a
traced benchmark run."""

import importlib.util
from pathlib import Path

LAYERS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def _load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_patches_exist_and_are_restored():
    tracer = _load_layers().Tracer()
    try:
        # install() reads every original from its owner's __dict__, so a
        # missing name raises here
        tracer.install()
        patched = list(tracer._patches)
        assert patched
        for owner, attr, original in patched:
            assert owner.__dict__[attr] is not original, (owner, attr)
    finally:
        tracer.uninstall()
    for owner, attr, original in patched:
        assert owner.__dict__[attr] is original, (owner, attr)
