import ast
from pathlib import Path

from demixcs import errors
from demixcs.errors import DemixError

SRC = Path(errors.__file__).resolve().parent


def test_one_class_per_kind_of_fault():
    assert {cls.__name__ for cls in DemixError.__subclasses__()} == {
        "ArgumentError", "BudgetError", "NumericalError", "FormatError", "UsageError"}


def test_the_base_class_is_never_raised():
    raised = [f"{path.name}:{node.lineno}"
              for path in sorted(SRC.glob("*.py"))
              for node in ast.walk(ast.parse(path.read_text()))
              if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
              and isinstance(node.exc.func, ast.Name) and node.exc.func.id == "DemixError"]
    assert raised == []
