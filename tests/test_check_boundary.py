"""boxplus, scale and union_power check their factor d on every call; the
engine checks d once at its entry and then calls their unchecked cores
(_boxplus, _scale, _union_power), never the checked functions."""

import ast
import os

import pytest

import plethy

PACKAGE = os.path.dirname(plethy.__file__)
CHECKED = {"boxplus", "scale", "union_power"}
CORES = {"_boxplus", "_scale", "_union_power"}


def called_names(name):
    """The name of every function plethy/<name>.py calls, as a bare name or an attribute."""
    with open(os.path.join(PACKAGE, f"{name}.py"), encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            yield func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


@pytest.mark.parametrize("name", ["characters", "symfunc", "verify"])
def test_engine_calls_only_the_cores(name):
    called = set(called_names(name))
    assert called & CHECKED == set()
    assert called & CORES


# Per engine module, every function whose own body calls check_partition or
# _check_positive.  BELOW_BOUNDARY names the two that re-check a d the
# engine already checked at its entry (ROADMAP item 14); that item shrinks
# it on purpose, and a new check below the boundary fails this pin.
BOUNDARY = {
    "abacus": set(),
    "mn": {"mn_value"},
    "symfunc": {"__init__", "power_d", "psi_d", "schur_to_power", "to_power"},
    "characters": {"boxplus_classfunction", "scaled_classfunction"},
    "verify": {"_oracle_input", "f_dim"},
}
BELOW_BOUNDARY = {"abacus": {"_beads"}, "symfunc": {"phi_d_power"}}
INPUT_CHECKS = {"check_partition", "_check_positive"}


def checking_functions(name):
    """The innermost function around each input-check call in plethy/<name>.py."""
    with open(os.path.join(PACKAGE, f"{name}.py"), encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    found = set()

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else owner
            if isinstance(child, ast.Call):
                func = child.func
                if (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)) in INPUT_CHECKS:
                    found.add(inner)
            visit(child, inner)

    visit(tree, None)
    return found


@pytest.mark.parametrize("name", BOUNDARY)
def test_input_checks_are_pinned(name):
    assert checking_functions(name) == BOUNDARY[name] | BELOW_BOUNDARY.get(name, set())
