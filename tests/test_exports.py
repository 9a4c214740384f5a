"""Export lists: every exported name exists, and the package re-exports
only what its layer exports, so a deleted helper cannot linger in one."""

import ast
import importlib
from pathlib import Path

import pytest

import qcverify

LAYERS = ("exact_linalg", "graded_modules", "localization_cech", "glued_scheme",
          "matlis", "verify_cli")


@pytest.mark.parametrize("layer", LAYERS)
def test_every_name_in_a_layers_all_exists(layer):
    mod = importlib.import_module(f"qcverify.{layer}")
    assert len(set(mod.__all__)) == len(mod.__all__)
    assert [n for n in mod.__all__ if not hasattr(mod, n)] == []


def test_the_package_reexports_only_what_its_layers_export():
    tree = ast.parse(Path(qcverify.__file__).read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    seen = set()
    for node in imports:
        assert node.level == 1 and node.module in LAYERS, node.module
        seen.add(node.module)
        layer_all = importlib.import_module(f"qcverify.{node.module}").__all__
        names = [a.name for a in node.names]
        assert [n for n in names if n not in layer_all] == [], node.module
    assert seen == set(LAYERS)
