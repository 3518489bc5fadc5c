"""The public names of the plethy package, of each of its modules, and of
the classes CharCache and SymFunc.  Adding or removing one is an API
change: it has to edit these pins on purpose."""

import ast
import inspect
import json
import os
import subprocess
import sys

import pytest

import plethy

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

PUBLIC_NAMES = [
    "CacheFormatError",
    "CharCache",
    "Config",
    "DegreeMismatchError",
    "EMPTY",
    "Partition",
    "PartitionError",
    "ROUTE_DIRECT",
    "ROUTE_PLETHYSTIC",
    "SymFunc",
    "VerificationReport",
    "abacus",
    "boxplus",
    "boxplus_classfunction",
    "centralizer_order",
    "character_table",
    "characters",
    "check_partition",
    "config",
    "conjugate",
    "d_core",
    "d_quotient",
    "d_sign",
    "decompose",
    "default_cache_path",
    "f_dim",
    "format_partition",
    "format_rational",
    "hall_inner",
    "hall_summation_oracle",
    "load_config",
    "mn",
    "mn_value",
    "multiplicity_pattern",
    "multiply",
    "orbit_divisibility_check",
    "parse_config",
    "parse_partition",
    "partitions",
    "partitions_of",
    "phi_d_littlewood",
    "phi_d_power",
    "power_d",
    "power_to_schur",
    "psi_d",
    "run_verify_all",
    "save_config",
    "scale",
    "scaled_classfunction",
    "schur_to_power",
    "sort_key",
    "symfunc",
    "to_power",
    "union",
    "union_power",
    "verify",
    "verify_hall_oracle",
    "verify_littlewood",
    "verify_theorem1",
    "verify_theorem1_scaled",
    "verify_theorem2_div",
    "verify_theorem2_vanish",
]


def test_public_names_are_pinned():
    # A fresh process: importing plethy.cli elsewhere in the session would add `cli`.
    proc = subprocess.run(
        [sys.executable, "-c", "import json, plethy; print(json.dumps(sorted(n for n in vars(plethy) if n[0] != '_')))"],
        env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == PUBLIC_NAMES


# The public names each module binds itself, imports left out.
MODULE_NAMES = {
    "abacus": [
        "d_core",
        "d_quotient",
        "d_sign",
        "decode_mask",
        "encode_mask",
        "mask_ribbons",
    ],
    "characters": [
        "ROUTE_DIRECT",
        "ROUTE_PLETHYSTIC",
        "boxplus_classfunction",
        "decompose",
        "scaled_classfunction",
    ],
    "config": [
        "Config",
        "DEFAULT_LITTLEWOOD_SIZE",
        "DEFAULT_ORACLE_N",
        "DEFAULT_TABLE_LIMIT",
        "DEFAULT_THM1_D",
        "DEFAULT_THM1_N",
        "DEFAULT_THM2_D",
        "DEFAULT_THM2_N",
        "MAX_QUOTIENT_D",
        "OUTPUT_FORMATS",
        "check_limit",
        "default_cache_path",
        "load_config",
        "parse_config",
        "save_config",
    ],
    "mn": [
        "CacheFormatError",
        "CharCache",
        "DegreeMismatchError",
        "character_table",
        "mn_value",
    ],
    "partitions": [
        "EMPTY",
        "Partition",
        "PartitionError",
        "boxplus",
        "centralizer_order",
        "check_partition",
        "conjugate",
        "format_partition",
        "multiplicity_pattern",
        "parse_partition",
        "partitions_of",
        "scale",
        "sort_key",
        "union",
        "union_power",
    ],
    "symfunc": [
        "SymFunc",
        "format_rational",
        "hall_inner",
        "multiply",
        "phi_d_littlewood",
        "phi_d_power",
        "power_d",
        "power_to_schur",
        "psi_d",
        "schur_to_power",
        "to_power",
    ],
    "verify": [
        "HALL_ORACLE",
        "LITTLEWOOD",
        "Sweep",
        "THM1",
        "THM1_SCALED",
        "THM2_DIV",
        "THM2_VANISH",
        "VerificationReport",
        "f_dim",
        "hall_summation_oracle",
        "orbit_divisibility_check",
        "run_verify_all",
        "sweep_table",
        "verify_hall_oracle",
        "verify_littlewood",
        "verify_theorem1",
        "verify_theorem1_scaled",
        "verify_theorem2_div",
        "verify_theorem2_vanish",
    ],
}

# The public attributes of an instance, methods and properties included.
CLASS_ATTRIBUTES = {
    "CharCache": ["file_stats", "flush", "path"],
    "SymFunc": ["degrees", "is_zero", "terms", "values"],
}


@pytest.mark.parametrize("name", MODULE_NAMES)
def test_module_names_are_pinned(name):
    module = getattr(plethy, name)
    tree = ast.parse(inspect.getsource(module))
    imported = {
        alias.asname or alias.name.partition(".")[0]
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    assert sorted(key for key in vars(module) if key[0] != "_" and key not in imported) == MODULE_NAMES[name]


@pytest.mark.parametrize("name", CLASS_ATTRIBUTES)
def test_class_attributes_are_pinned(name):
    instance = getattr(plethy, name)()
    assert [key for key in dir(instance) if key[0] != "_"] == CLASS_ATTRIBUTES[name]
