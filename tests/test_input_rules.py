"""Each rule on what a run may take has one home; these scans fail when a
second copy of the seed rule appears, or a budget taker goes untested."""

import ast
import inspect
from pathlib import Path

import dynachrome

SRC = Path(dynachrome.__file__).parent
TESTS = Path(__file__).parent

# The two tests that feed every public budget taker a bad budget.
BAD_BUDGET_TESTS = [
    ("test_exact.py", "test_negative_budget_rejected_and_zero_budget_exhausts"),
    ("test_constructions.py", "test_negative_budget_refused_on_every_path"),
]


class _RandomCalls(ast.NodeVisitor):
    """Records, by enclosing qualified name, each call of ``Random`` or of a
    function of the ``random`` module.  Docstrings and annotations hold no
    calls, so they do not count."""

    def __init__(self, module: str):
        self.scope = [module]
        self.found: list[str] = []

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_AsyncFunctionDef = visit_ClassDef = visit_FunctionDef

    def visit_Call(self, node):
        f = node.func
        if (isinstance(f, ast.Name) and f.id == "Random") or (
            isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name)
            and f.value.id == "random"
        ):
            self.found.append(".".join(self.scope))
        self.generic_visit(node)


def test_random_is_called_only_in_the_seed_rule():
    calls = []
    for path in sorted(SRC.glob("*.py")):
        visitor = _RandomCalls(path.stem)
        visitor.visit(ast.parse(path.read_text(encoding="utf-8")))
        calls += visitor.found
    assert calls == ["graphs._rng"]


def _called_names(filename: str, test: str) -> set[str]:
    tree = ast.parse((TESTS / filename).read_text(encoding="utf-8"))
    (fn,) = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == test]
    return {
        n.func.id for n in ast.walk(fn)  # the decorators' parameters included
        if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
    }


def test_every_public_budget_taker_is_fed_bad_budgets():
    takers = {
        name for name, obj in vars(dynachrome).items()
        if inspect.isfunction(obj) and "budget" in inspect.signature(obj).parameters
    }
    assert {"chromatic_number", "is_k_critical", "conjecture_scan"} <= takers
    called = set().union(*(_called_names(f, t) for f, t in BAD_BUDGET_TESTS))
    assert sorted(takers - called) == []
