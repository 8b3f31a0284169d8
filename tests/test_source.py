"""Static checks on the package source."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "mintplan"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items(), key=lambda kv: kv[1]) if name not in used]


def test_modules_use_every_name_they_import():
    assert MODULES
    found = {p.name: unused_imports(p.read_text()) for p in MODULES}
    assert {name: names for name, names in found.items() if names} == {}


def coin_load_reads(source: str) -> list[str]:
    """Places a module reads a coin's blanking rate or alloy weight off
    a spec; keyword arguments that set them are no reads."""
    reads = [
        node
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr in ("blanking_rate", "alloy_weight")
    ]
    return [f"line {node.lineno}: .{node.attr}" for node in sorted(reads, key=lambda node: node.lineno)]


def test_only_the_model_reads_per_coin_loads():
    """``model.coin_loads`` is the one table of what a coin loads onto
    each process; every other module reads it instead of the specs."""
    found = {p.name: coin_load_reads(p.read_text()) for p in MODULES if p.name != "model.py"}
    assert {name: reads for name, reads in found.items() if reads} == {}


def private_imports(source: str, module: str) -> list[str]:
    """Underscore names a module imports from the sibling ``module``."""
    return [
        f"line {node.lineno}: {alias.name}"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == module
        for alias in node.names
        if alias.name.startswith("_")
    ]


def test_no_module_imports_a_private_name_of_mip():
    """``mip`` owns the map from plans and ladders to columns; the other
    modules read it through public names, never through its private ones."""
    found = {p.name: private_imports(p.read_text(), "mip") for p in MODULES if p.name != "mip.py"}
    assert {name: names for name, names in found.items() if names} == {}
