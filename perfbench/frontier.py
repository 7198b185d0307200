"""Frontier probe: for each route, the largest n it finishes within the
budget, in a fresh interpreter per step, and why the next n stopped.

The search doubles n from a start value until a step fails, then bisects
between the last success and the first failure.  A step fails when the
call runs past the budget ("budget") or raises (the exception's name).
"""

from __future__ import annotations

import json
import subprocess
import sys
from time import perf_counter

BUDGET_S = 1.0
CAP_N = 4096

# metric name -> first n tried.  The start only saves steps; the search
# doubles past it for as long as the route keeps within the budget.
ROUTES = {
    "frontier.derive_n.stirling": 32,
    "frontier.derive_n.dowling": 16,
    "frontier.rewrite.ca_power": 4,
    "frontier.wick.ca_power": 4,
    "frontier.normal_order_p.ca_power": 4,
    "frontier.rook.staircase": 2,
    "frontier.rstirling.n": 4,
}


class BudgetExceeded(BaseException):
    """Raised by the step's timer; not an Exception, so no handler in the
    program can swallow it."""


def prepare(route: str, n: int, P):
    """Build the route's input for size n; return the call to time."""
    g, w, num = P.grammar, P.weyl, P.numbers
    if route.startswith("frontier.derive_n."):
        text = "x -> x*y; y -> y" if route.endswith("stirling") else "x -> r*x + x*y; y -> m*y"
        grammar, x = g.parse_grammar(text), P.ring.sym("x")
        return lambda: g.derive_n(grammar, x, n)
    if route == "frontier.rook.staircase":
        board = num.staircase_board(n)
        return lambda: num.rook_numbers(board)
    if route == "frontier.rstirling.n":
        return lambda: num.rstirling_bruteforce(n, 1, 1)
    word = w.WeylWord.ca_power(n)
    call = {
        "frontier.rewrite.ca_power": w.normal_order,
        "frontier.wick.ca_power": w.wick_sum,
        "frontier.normal_order_p.ca_power": w.normal_order_p,
    }[route]
    return lambda: call(word)


def search(step, start: int, deadline: float) -> tuple[int, str]:
    """(largest passing n, stop reason) for a monotone pass/fail `step`,
    which returns None on success or the reason it failed."""
    ok, bad, reason = 0, None, "cap"
    n = start
    while n <= CAP_N:
        if perf_counter() > deadline:
            return ok, "deadline"
        failure = step(n)
        if failure is not None:
            bad, reason = n, failure
            break
        ok, n = n, n * 2
    if bad is None:
        return ok, reason
    while bad - ok > 1:
        if perf_counter() > deadline:
            return ok, "deadline"
        mid = (ok + bad) // 2
        failure = step(mid)
        if failure is None:
            ok = mid
        else:
            bad, reason = mid, failure
    return ok, reason


def probe(worker: str, cwd: str, env: dict, deadline: float) -> dict[str, tuple[int, str]]:
    """Run every route's search; each step is its own child process."""

    def step(route: str, n: int) -> str | None:
        timeout = max(0.1, min(BUDGET_S + 10, deadline - perf_counter()))
        cmd = [sys.executable, worker, "frontier", route, str(n), str(BUDGET_S)]
        try:
            done = subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            return "budget"
        if done.returncode:
            return f"exit{done.returncode}"
        return json.loads(done.stdout.strip().splitlines()[-1])["stop"]

    return {
        route: search(lambda n, route=route: step(route, n), start, deadline)
        for route, start in ROUTES.items()
    }
