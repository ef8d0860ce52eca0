"""Guard against library code that only its own unit tests call.

Every public top-level function or class of ``src/pshjb``, and every method
of the ``ProjectedModel`` contract, must be referenced by name or attribute
(or imported by name) from other library code.  Docstrings are strings, not
references, and ``__init__.py`` only re-exports modules, so neither counts.
"""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "pshjb"

# test oracles and acceptance-criterion helpers, kept without a library caller
ALLOWED = {
    "semigroup_apply",
    "cameron_martin_density",
    "c_gradient_norm_bound_check",
    "contraction_ratios",
    "eval_c_gradient",
}


def references(node) -> Counter:
    refs = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            refs[n.id] += 1
        elif isinstance(n, ast.Attribute):
            refs[n.attr] += 1
        elif isinstance(n, ast.ImportFrom):
            refs.update(alias.name for alias in n.names)
    return refs


def public_definitions(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node
        if isinstance(node, ast.ClassDef) and node.name == "ProjectedModel":
            yield from (m for m in node.body if isinstance(m, ast.FunctionDef)
                        and not m.name.startswith("_"))


def test_every_public_name_has_a_library_caller():
    trees = {p.name: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    total = sum((references(t) for name, t in trees.items() if name != "__init__.py"),
                Counter())
    defined = {node.name for tree in trees.values() for node in public_definitions(tree)}
    assert ALLOWED <= defined, "stale allowlist entries: " + ", ".join(ALLOWED - defined)
    unused = [
        f"{name}:{node.name}"
        for name, tree in trees.items()
        for node in public_definitions(tree)
        if node.name not in ALLOWED
        and total[node.name] - references(node)[node.name] <= 0
    ]
    assert unused == [], "public code without a library caller: " + ", ".join(unused)
