import importlib.util
import os
import sys

from twocenter import presets
from twocenter.model import SUPPORTED_LABELS

TOOLS = os.path.join(os.path.dirname(__file__), "..", "tools")


def test_bake_presets_loads_without_running(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location(
        "bake_presets", os.path.join(TOOLS, "bake_presets.py"))
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    assert callable(tool.main)
    assert tool.rescale_seed is presets.rescale_seed
    assert sorted(tool.GRIDS) == sorted(
        (s.n, s.m, s.lam, s.parity) for s in SUPPORTED_LABELS)
