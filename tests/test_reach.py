"""Every public name of the package has a caller in the package.

A public top-level function or class, or a public method or property of a
top-level class, must be referenced by some module of ``src/truncmlmc`` other
than ``__init__``, outside its own definition.  A reference is a name or an
attribute with the same identifier, so a method counts as called wherever an
attribute of that name is read.  Code that only tests call belongs in
``tests/`` (``scalar_oracles.py`` holds such helpers), not in the package.
"""

import ast
from collections import Counter
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "truncmlmc"

# public names that no package module calls, each with the reason it stays
ALLOWED = {
    "check_pair_variance_bound": "one of the paper's checks (criterion 03)",
    "check_residual_lower_bound": "one of the paper's checks (criterion 03)",
    "predicted_variance": "criterion 07's predicted MLMC variance",
    "standard_mc_chain": "criterion 06's chain reference estimator",
    "drift_integral": "criterion 08's drift functional",
    "chain_integrand": "the chain's cube integrand, which the markov docstring defines",
    "CostLedger.total_units": "bench/test_bench.py reads it",
}


def _definitions(tree):
    """(name, node) of each public top-level function and class, and of each
    public method and property of a top-level class, as ``Class.method``."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        if not node.name.startswith("_"):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item


def _identifiers(node) -> Counter:
    return Counter(child.id if isinstance(child, ast.Name) else child.attr
                   for child in ast.walk(node)
                   if isinstance(child, (ast.Name, ast.Attribute)))


def test_every_public_name_has_a_caller_in_the_package():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    uses = Counter()
    for module, tree in trees.items():
        if module != "__init__":
            uses += _identifiers(tree)
    defined = {}
    for module, tree in trees.items():
        for name, node in _definitions(tree):
            defined[f"{module}.{name}"] = (name, node)
    uncalled = sorted(
        where for where, (name, node) in defined.items()
        if name not in ALLOWED
        and uses[identifier := name.rpartition(".")[2]] <= _identifiers(node)[identifier])
    assert not uncalled, f"public names that no package module calls: {uncalled}"
    stale = sorted(set(ALLOWED) - {name for name, _ in defined.values()})
    assert not stale, f"allowed names that the package no longer defines: {stale}"
