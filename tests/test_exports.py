"""Export lists and imports: every exported name exists, the package
re-exports only what its layer exports, every name a layer imports is used
there, and every method and stored value is read somewhere, so a deleted
or superseded helper cannot linger."""

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


@pytest.mark.parametrize("layer", LAYERS)
def test_every_name_a_layer_imports_is_used(layer):
    # __init__.py imports only to re-export, and is checked above
    path = Path(qcverify.__file__).with_name(f"{layer}.py")
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported, used = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                imported[a.asname or a.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                imported[a.asname or a.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
    assert {name: line for name, line in imported.items() if name not in used} == {}


def _attribute_reads():
    """Every attribute name read as .name anywhere in src/ or tests/."""
    root = Path(qcverify.__file__).parents[2]
    reads = set()
    for path in [*root.joinpath("src").rglob("*.py"), *root.joinpath("tests").rglob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads.add(node.attr)
    return reads


def _stored_names(cls: ast.ClassDef):
    """The attributes a class sets on self, and its NamedTuple fields."""
    if any(isinstance(b, ast.Name) and b.id == "NamedTuple" for b in cls.bases):
        for node in cls.body:
            if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                yield node.target.id
    for node in ast.walk(cls):
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for t in targets:
                for e in t.elts if isinstance(t, ast.Tuple) else [t]:
                    if (isinstance(e, ast.Attribute) and isinstance(e.value, ast.Name)
                            and e.value.id == "self"):
                        yield e.attr


@pytest.mark.parametrize("layer", LAYERS)
def test_every_stored_value_is_read(layer):
    # an exception's payload is for its callers, so exceptions are exempt
    mod = importlib.import_module(f"qcverify.{layer}")
    tree = ast.parse(Path(mod.__file__).read_text(encoding="utf-8"))
    reads = _attribute_reads()
    unread = {
        f"{node.name}.{name}"
        for node in tree.body
        if isinstance(node, ast.ClassDef) and not issubclass(getattr(mod, node.name), BaseException)
        for name in _stored_names(node)
        if name not in reads
    }
    assert unread == set()


@pytest.mark.parametrize("layer", LAYERS)
def test_every_method_is_read(layer):
    # a method that nothing in src/ or tests/ reads as .name is dead code;
    # dunder methods are called by Python itself
    path = Path(qcverify.__file__).with_name(f"{layer}.py")
    tree = ast.parse(path.read_text(encoding="utf-8"))
    reads = _attribute_reads()
    unread = {
        f"{cls.name}.{node.name}"
        for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and node.name not in reads
    }
    assert unread == set()
