"""Routes that check each other share no code.

The normal-ordering routes of weyl.py: rewriting (``_rewrite_terms``),
the Wick scan (``_used_creation_sets``), the contraction walker
(``_contraction_nodes``) and the p-form (``normal_order_p``) are checked
against each other, so a helper that two of them call would let one
fault pass both checks.  These tests read weyl.py's syntax tree and
follow each route through the module-level names that it reads.  No
route may reach another, and no two may reach a common module-level
function or class.  The data types ``WeylWord`` and ``NormalForm`` are
shared on purpose and not followed; module-level constants are followed
but not counted; names from ``ring`` are not weyl.py's, so they are
allowed.  The two rook routes of numbers.py, the placement walk
(``rook_numbers``) and the column recurrence (``rook_numbers_by_columns``),
are read the same way, with ``FerrersBoard`` as their shared data type.

Across modules: the grammar suite checks ``grammar._derivatives`` against
the recurrence rows of numbers.py (the stirling-p and q-stirling rows
among them), so neither module may import any package module but
``ring``.
"""

import ast
import itertools
import textwrap
from pathlib import Path

from weylgram import grammar, numbers, weyl

ROUTES = ("normal_order_p", "_rewrite_terms", "_used_creation_sets", "_contraction_nodes")
DATA_TYPES = {"WeylWord", "NormalForm"}


def source_of(module):
    return Path(module.__file__).read_text(encoding="utf-8")


def shared_helpers(source, routes=ROUTES, data_types=DATA_TYPES):
    """{(route, route): sorted module-level functions and classes that both
    reach}, for every pair of routes that share one; a route reaches itself
    and does not follow the names in data_types."""
    tree = ast.parse(source)
    names = {}  # module-level name -> the statement that defines it
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update((target.id, node) for target in targets if isinstance(target, ast.Name))
    code = {name for name, node in names.items() if isinstance(node, (ast.FunctionDef, ast.ClassDef))}

    def reached(route):
        seen, todo = set(), [route]
        while todo:
            name = todo.pop()
            if name not in seen:
                seen.add(name)
                todo += [
                    node.id
                    for node in ast.walk(names[name])
                    if isinstance(node, ast.Name) and node.id in names and node.id not in data_types
                ]
        return seen & code

    missing = [route for route in routes if route not in code]
    assert not missing, f"routes not defined at module level: {missing}"
    reach = {route: reached(route) for route in routes}
    return {
        (first, second): sorted(reach[first] & reach[second])
        for first, second in itertools.combinations(routes, 2)
        if reach[first] & reach[second]
    }


def package_imports(source, package="weylgram"):
    """The sorted names of the package modules that a module's source
    imports, at any depth, relative or absolute; an import of the package
    itself counts as its name."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            dotted = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, [package if node.level else None, node.module]))
            dotted = [f"{base}.{alias.name}" for alias in node.names]
        else:
            continue
        for parts in (name.split(".") for name in dotted):
            if parts[0] == package:
                found.add(parts[1] if len(parts) > 1 else package)
    return sorted(found)


def test_weyl_routes_share_no_helper():
    assert shared_helpers(source_of(weyl)) == {}


def test_rook_routes_share_no_helper():
    routes = ("rook_numbers", "rook_numbers_by_columns")
    assert shared_helpers(source_of(numbers), routes, {"FerrersBoard"}) == {}


def test_numbers_and_grammar_import_only_ring():
    assert package_imports(source_of(numbers)) == ["ring"]
    assert package_imports(source_of(grammar)) == ["ring"]


def test_a_shared_helper_or_a_call_between_routes_is_found():
    source = textwrap.dedent(
        """
        LETTER = "a"

        class WeylWord: ...

        def _count(letters):
            return letters.count(LETTER)

        def _first(word: WeylWord):
            return _count(word.letters)

        def _second(letters):
            return _count(letters)

        def _third(letters):
            return _alias(letters)

        _alias = _first

        def _fourth(letters):
            return WeylWord(LETTER)
        """
    )
    routes = ("_first", "_second", "_third", "_fourth")
    assert shared_helpers(source, routes) == {
        ("_first", "_second"): ["_count"],
        ("_first", "_third"): ["_count", "_first"],
        ("_second", "_third"): ["_count"],
    }


def test_every_form_of_package_import_is_found():
    source = textwrap.dedent(
        """
        from __future__ import annotations
        import json
        from itertools import groupby
        from .ring import Polynomial
        from . import weyl
        from .bijections.inner import helper

        def late():
            import weylgram.verify
            import weylgram
            from weylgram import cli, suites as s
            from weylgram.grammar import derive
        """
    )
    assert package_imports(source) == [
        "bijections", "cli", "grammar", "ring", "suites", "verify", "weyl", "weylgram"
    ]
