"""The normal-ordering routes of weyl.py share no code.

Rewriting (``_rewrite_terms``), the Wick scan (``_used_creation_sets``),
the contraction walker (``_contraction_nodes``) and the p-form
(``normal_order_p``) are checked against each other, so a helper that two
of them call would let one fault pass both checks.  These tests read
weyl.py's syntax tree and follow each route through the module-level
names that it reads.  No route may reach another, and no two may reach a
common module-level function or class.  The data types ``WeylWord`` and
``NormalForm`` are shared on purpose and not followed; module-level
constants are followed but not counted; names from ``ring`` are not
weyl.py's, so they are allowed.
"""

import ast
import itertools
import textwrap
from pathlib import Path

from weylgram import weyl

ROUTES = ("normal_order_p", "_rewrite_terms", "_used_creation_sets", "_contraction_nodes")
DATA_TYPES = {"WeylWord", "NormalForm"}


def shared_helpers(source, routes=ROUTES):
    """{(route, route): sorted module-level functions and classes that both
    reach}, for every pair of routes that share one; a route reaches itself."""
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
                    if isinstance(node, ast.Name) and node.id in names and node.id not in DATA_TYPES
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


def test_weyl_routes_share_no_helper():
    assert shared_helpers(Path(weyl.__file__).read_text(encoding="utf-8")) == {}


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
