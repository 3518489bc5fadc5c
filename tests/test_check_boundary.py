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
