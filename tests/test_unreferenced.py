"""No dead helpers: every module-level function or class of qrlab is used.

A name counts as used when code in src/qrlab (outside __init__, whose
exports alone keep nothing alive) or a file under bench/ refers to it: as
a name, an attribute, or a whole string (bench/ traces functions by name).
Two names are kept for the tests alone, as oracles.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

ORACLES = {
    "left_kernel",  # integer left kernel, checks the relation lattice
    "dimension_subgroup",  # D_n one level at a time, against the chain
}


def _referenced(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def test_every_module_level_definition_is_referenced():
    defined, used = {}, set()
    for path in sorted((ROOT / "src" / "qrlab").glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined[node.name] = path.stem
        used.update(_referenced(tree))
    for path in sorted((ROOT / "bench").rglob("*.py")):
        used.update(_referenced(ast.parse(path.read_text())))
    dead = sorted(f"{mod}.{name}" for name, mod in defined.items()
                  if name not in used and name not in ORACLES)
    assert dead == []
