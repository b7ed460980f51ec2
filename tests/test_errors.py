import ast
from pathlib import Path

import pytest

from demixcs import errors
from demixcs.errors import ArgumentError, DemixError, FormatError
from demixcs.experiments import PhaseTransitionSpec, StabilitySpec
from demixcs.io import load_instance, save_instance
from demixcs.linop import materialize
from demixcs.models import build_family, gen_instance
from demixcs.rip import exact_skrip
from demixcs.solvers import PenalizedL1Config

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


def _load_with(tmp_path, s, k):
    path = tmp_path / "inst.txt"
    save_instance(path, gen_instance(build_family("mtx1", 32, 16, 0), 1, 1, "gaussian", 0.0, 0))
    path.write_text(path.read_text().replace("\ns = 1\n", f"\ns = {s}\n", 1)
                    .replace("\nk = 1\n", f"\nk = {k}\n", 1))
    load_instance(path)


def _skrip(tmp_path, s, k):
    model = build_family("mtx1", 32, 16, 0)
    exact_skrip(materialize(model.A), materialize(model.H), s, k)


# each way a draw's sizes enter, on an mtx1 model with n = 32 and m = 16
_DRAW_ENTRIES = {
    "gen_instance": lambda tmp_path, s, k: gen_instance(
        build_family("mtx1", 32, 16, 0), s, k, "gaussian", 0.0, 0),
    "PhaseTransitionSpec": lambda tmp_path, s, k: PhaseTransitionSpec(
        family="mtx1", n=32, m=16, s_values=(s,), k_values=(k,), trials=1,
        setting="gaussian", solver_cfg=PenalizedL1Config(lambda_reg=1.0),
        master_seed=0),
    "StabilitySpec": lambda tmp_path, s, k: StabilitySpec(
        family="mtx1", n=32, m=16, s=s, k=k, eps_values=(0.0,), trials=2),
    "load_instance": _load_with,
    "exact_skrip": _skrip,
}


@pytest.mark.parametrize("entry", sorted(_DRAW_ENTRIES))
@pytest.mark.parametrize("s, k, message", [
    (-1, 1, "signal sparsity -1 outside [0, 32]"),
    (33, 1, "signal sparsity 33 outside [0, 32]"),
    (1, -1, "corruption sparsity -1 outside [0, 16]"),
    (1, 17, "corruption sparsity 17 outside [0, 16]"),
    (1.5, 1, "signal sparsity 1.5 is not an integer"),
], ids=["s-negative", "s-above-n", "k-negative", "k-above-m", "s-not-integer"])
def test_out_of_range_sparsity_reads_the_same_everywhere(tmp_path, entry, s, k, message):
    kind, prefix = ArgumentError, ""
    if entry == "load_instance":
        kind, prefix = FormatError, f"instance file '{tmp_path / 'inst.txt'}': "
        if not isinstance(s, int):  # an instance file's s must parse as an integer first
            prefix = prefix[:-2] + " is malformed: "
            message = f"invalid literal for int() with base 10: '{s}'"
    with pytest.raises(kind) as info:
        _DRAW_ENTRIES[entry](tmp_path, s, k)
    assert str(info.value) == prefix + message


def test_usage_errors_come_only_from_parse_args():
    """No command raises or catches UsageError; `main` catches it once, around
    `parse_args`."""
    tree = ast.parse((SRC / "cli.py").read_text())
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    commands = [name for name in functions if name.startswith("_cmd_")]
    assert len(commands) == 7
    for name in commands:
        assert not [node for node in ast.walk(functions[name])
                    if isinstance(node, ast.Name) and node.id == "UsageError"], name
    handlers = [node for node in ast.walk(functions["main"])
                if isinstance(node, ast.ExceptHandler)
                and isinstance(node.type, ast.Name) and node.type.id == "UsageError"]
    assert len(handlers) == 1
    (guarded,) = [node for node in ast.walk(functions["main"])
                  if isinstance(node, ast.Try) and handlers[0] in node.handlers]
    assert "parse_args" in {node.func.id for stmt in guarded.body for node in ast.walk(stmt)
                            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
