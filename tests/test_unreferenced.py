"""No dead helpers: every module-level function or class of qrlab is used,
and so is every method or property of its classes, dunders aside.

A name counts as used when code in src/qrlab (outside __init__, whose
exports alone keep nothing alive) or a file under bench/ refers to it: as
a name, an attribute, or a whole string (bench/ traces functions by name).
The oracles the tests compare against live in tests/reference.py, so
ORACLES, the names src/qrlab keeps for the tests alone, is empty.  Two
names are kept by bench/ alone (BENCH_ONLY): the pipeline no longer calls
them, and nothing else may join them.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

ORACLES: set[str] = set()

BENCH_ONLY = {
    "intlinalg.integer_inverse",  # traced by bench/run.py
    "permrec.equivalence_harness",  # bench/run.py's and bench/freeze.py's harness
}


def _referenced(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def _definitions_and_uses():
    """Qualified name -> bare name of each definition, the names used in
    src/qrlab and the names used under bench/."""
    defined, used, bench = {}, set(), set()
    for path in sorted((ROOT / "src" / "qrlab").glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined[f"{path.stem}.{node.name}"] = node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                        defined[f"{path.stem}.{node.name}.{item.name}"] = item.name
        used.update(_referenced(tree))
    for path in sorted((ROOT / "bench").rglob("*.py")):
        bench.update(_referenced(ast.parse(path.read_text())))
    return defined, used, bench


def _dead(depth):
    defined, used, bench = _definitions_and_uses()
    return sorted(q for q, name in defined.items()
                  if q.count(".") == depth and name not in used | bench and q not in ORACLES)


def test_every_module_level_definition_is_referenced():
    assert _dead(1) == []


def test_every_method_and_property_is_referenced():
    assert _dead(2) == []


def test_bench_alone_keeps_exactly_the_listed_names():
    defined, used, bench = _definitions_and_uses()
    assert {q for q, name in defined.items() if name in bench and name not in used} == BENCH_ONLY
