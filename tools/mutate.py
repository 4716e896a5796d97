#!/usr/bin/env python3
"""Mutation audit: run the test suite against one-edit mutants of chosen code.

Usage, from the root of a checkout::

    python3 tools/mutate.py anova:InequalityReport anova:_var_and_se \\
        mlmc:check_level_budget_bound

A target is ``module:name``: a module of ``src/truncmlmc`` and a function or
class defined at its top level (a class's methods are mutated with it).
Each mutant changes one node of a target's syntax tree, using five kinds of
edit:

* flip a comparison operator (``<`` and ``<=``, ``>`` and ``>=``, ``==`` and
  ``!=``, ``is`` and ``is not``, ``in`` and ``not in``);
* shift an integer constant, or a slice bound that is not a constant, by +1
  and by -1;
* swap ``+`` and ``-`` in a binary or augmented assignment;
* drop a ``raise`` statement;
* replace a returned comparison or boolean with ``True`` and with ``False``.

Every mutant runs ``python -m pytest -x -q`` on the target module's own
test file, ``tests/test_<module>.py`` (``OWN_TESTS`` maps the modules whose
tests live elsewhere), and only if that passes on the whole of ``tests``, so
that most mutants are killed in seconds and a survivor still runs every
test.  The runs use one temporary copy of the checkout (under ``$TMPDIR``;
the tests read ``bench/`` and the README), with the target replaced by the
mutated tree and no bytecode written, so the checkout is never edited.  The
unmutated suite runs first, timed, and must pass; each run of a mutant is
stopped after ``SLACK`` times that time.  One line per mutant is printed,
in the format of ``MUTANTS.md``: the place, the edit, and ``killed by`` the
first failing test (or by the timeout, for a mutant that loops), or
``open`` if the suite passed.  Whether an open mutant is equivalent is for
a reader to decide.
"""

from __future__ import annotations

import argparse
import ast
import copy
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path("src") / "truncmlmc"

FLIPS = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
         ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot,
         ast.IsNot: ast.Is, ast.In: ast.NotIn, ast.NotIn: ast.In}
SWAPS = {ast.Add: ast.Sub, ast.Sub: ast.Add}
SLACK = 3.0  # a mutant's timeout, in runs of the unmutated suite
# the test file of each module whose tests are not in tests/test_<module>.py
OWN_TESTS = {"config": "tests/test_cli.py", "runner": "tests/test_cli.py"}


def _is_int(node) -> bool:
    return (isinstance(node, ast.Constant) and isinstance(node.value, int)
            and not isinstance(node.value, bool))


def _is_boolean(node) -> bool:
    return (isinstance(node, (ast.Compare, ast.BoolOp))
            or (isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not))
            or (isinstance(node, ast.Constant) and isinstance(node.value, bool)))


def _shifted(node, delta: int):
    return ast.BinOp(left=node, op=ast.Add() if delta > 0 else ast.Sub(),
                     right=ast.Constant(1))


def sites(target) -> list[tuple[int, str, object]]:
    """The mutation sites of ``target`` as ``(node index in ast.walk order,
    kind, argument)``, in source order; the same indices find the same nodes
    in a copy."""
    found = []
    for index, node in enumerate(ast.walk(target)):
        if isinstance(node, ast.Compare):
            found += [(index, "compare", k) for k, op in enumerate(node.ops)
                      if type(op) in FLIPS]
        elif _is_int(node):
            found += [(index, "constant", +1), (index, "constant", -1)]
        elif isinstance(node, ast.Slice):
            found += [(index, "slice", (bound, delta))
                      for bound in ("lower", "upper")
                      if getattr(node, bound) is not None
                      and not _is_int(getattr(node, bound))
                      for delta in (+1, -1)]
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in SWAPS:
            found.append((index, "swap", None))
        elif isinstance(node, ast.Raise):
            found.append((index, "raise", None))
        elif isinstance(node, ast.Return) and _is_boolean(node.value):
            found += [(index, "return", value) for value in (True, False)
                      if not (isinstance(node.value, ast.Constant)
                              and node.value.value is value)]
    nodes = list(ast.walk(target))
    return sorted(found, key=lambda site: (nodes[site[0]].lineno,
                                           nodes[site[0]].col_offset))


def mutate(target, site) -> tuple[object, int, str, str]:
    """A mutated copy of ``target`` for ``site``, with the line, the source
    of the mutated node before and after the edit."""
    index, kind, arg = site
    tree = copy.deepcopy(target)
    nodes = list(ast.walk(tree))
    node = nodes[index]
    parents = {child: parent for parent in nodes
               for child in ast.iter_child_nodes(parent)}
    shown = node
    # a constant or a slice is shown in the expression that holds it
    while kind in ("constant", "slice") and (
            shown is node or isinstance(shown, (ast.Slice, ast.Tuple, ast.UnaryOp))):
        shown = parents[shown]
    before = ast.unparse(shown)
    if kind == "compare":
        node.ops[arg] = FLIPS[type(node.ops[arg])]()
    elif kind == "constant":
        node.value += arg
    elif kind == "slice":
        bound, delta = arg
        setattr(node, bound, _shifted(getattr(node, bound), delta))
    elif kind == "swap":
        node.op = SWAPS[type(node.op)]()
    elif kind == "raise":
        shown = ast.Pass()
        block = next(block for field in ("body", "orelse", "finalbody")
                     if node in (block := getattr(parents[node], field, None) or []))
        block[block.index(node)] = shown
    else:
        node.value = ast.Constant(arg)
    ast.fix_missing_locations(tree)
    return tree, node.lineno, before, ast.unparse(shown)


def _short(before: str, after: str, width: int = 70) -> tuple[str, str]:
    """``before`` and ``after`` on one line each; where either is longer than
    ``width``, both are cut to one shared window of ``width`` characters that
    holds their first differing character a quarter of the way in, or less
    where the window would run past the end of the longer text."""
    before, after = (" ".join(text.split()) for text in (before, after))
    longest = max(len(before), len(after))
    if longest <= width:
        return before, after
    first = next((k for k, (a, b) in enumerate(zip(before, after)) if a != b),
                 min(len(before), len(after)))
    start = max(0, min(first - width // 4, longest - width))
    return tuple(("..." if start else "") + text[start:start + width]
                 + ("..." if len(text) > start + width else "")
                 for text in (before, after))


def _target(source: str, name: str):
    for node in ast.parse(source).body:
        if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and node.name == name):
            return node
    raise SystemExit(f"error: no top-level function or class {name!r}")


def _run(copy_root: Path, timeout: float | None, module: str | None = None) -> str:
    """The outcome of ``module``'s own test file, if it has one, and only if
    that passes, of the whole suite: two runs, because one run given the
    file and ``tests`` collects the file in the directory's order, not first."""
    own = OWN_TESTS.get(module, f"tests/test_{module}.py")
    paths = [own] if module and (copy_root / own).is_file() else []
    for tests in paths + ["tests"]:
        if (outcome := _pytest(copy_root, timeout, tests)) != "open":
            return outcome
    return "open"


def _pytest(copy_root: Path, timeout: float | None, tests: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(copy_root / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
               tests]
    try:
        done = subprocess.run(command, cwd=copy_root, env=env, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return f"killed by the {timeout:.0f} s timeout"
    if done.returncode == 0:
        return "open"
    failed = re.search(r"^(?:FAILED|ERROR) (\S+)", done.stdout, re.MULTILINE)
    return f"killed by {failed.group(1) if failed else f'exit {done.returncode}'}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("targets", nargs="+", metavar="module:name")
    args = parser.parse_args(argv)
    # SIGTERM's default action would end the process before the copy is
    # removed; as SystemExit it kills the running suite and unwinds the copy
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    with tempfile.TemporaryDirectory(prefix="mutate-") as scratch:
        copy_root = Path(scratch) / "checkout"
        shutil.copytree(ROOT, copy_root, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".hypothesis", ".pytest_cache", ".bench_work"))
        start = time.perf_counter()
        if (baseline := _run(copy_root, None)) != "open":
            raise SystemExit(f"error: the unmutated suite fails ({baseline})")
        timeout = SLACK * (time.perf_counter() - start)
        for spec in args.targets:
            module, _, name = spec.partition(":")
            path = copy_root / PACKAGE / f"{module}.py"
            source = path.read_text(encoding="utf-8")
            lines = source.splitlines(keepends=True)
            target = _target(source, name)
            first = min([target.lineno] + [d.lineno for d in target.decorator_list])
            for site in sites(target):
                tree, line, before, after = mutate(target, site)
                before, after = _short(before, after)
                entry = f"- {module}.py:{line} `{name}`: `{before}` → `{after}`"
                mutant = "".join(lines[:first - 1]) + ast.unparse(tree) + "\n" + \
                    "".join(lines[target.end_lineno:])
                path.write_text(mutant, encoding="utf-8")
                try:
                    print(f"{entry} — {_run(copy_root, timeout, module)}", flush=True)
                finally:
                    path.write_text(source, encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
