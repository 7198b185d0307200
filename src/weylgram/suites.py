"""The verification suites' table.  It names each suite's function in
`verify` as a string, so the command-line parser reads the suites' names
and flags without loading their code."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Suite:
    """One verification suite: the `verify` function that runs it
    (looked up by name when it runs), the keyword its budget is passed
    as, the budget's default and accepted range, and whether
    `verify --suite all` runs it."""

    function: str
    budget: str
    default: int
    low: int
    cap: int
    in_all: bool = True

    @property
    def flag(self) -> str:
        """The command-line flag that sets the budget, e.g. --max-n."""
        return "--" + self.budget.replace("_", "-")


# Every suite; `verify --suite all` runs those with in_all, in this order.
# A suite's function takes only its budget: its other sizes are fixed in
# its body, and its report's params still show them.
SUITES: dict[str, Suite] = {
    "grammar": Suite("verify_grammar_theorems", "max_n", 8, 1, 10),
    "weyl": Suite("verify_weyl", "max_n", 8, 1, 10),
    "bijections": Suite("verify_bijections", "max_n", 6, 1, 7),
    "identities": Suite("verify_identities", "max_n", 8, 1, 10),
    "rook": Suite("verify_rook", "max_n", 4, 1, 4),
    "shift": Suite("verify_shift", "order", 8, 0, 10),
    "deformed": Suite("verify_deformed", "max_n", 10, 1, 12, in_all=False),
}
