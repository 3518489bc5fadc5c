"""Every plethy command is a fresh process, so what `import plethy.cli` loads
is paid on each run.  These modules cost milliseconds of start-up and plethy
does not need them: dataclasses and what it drags in (inspect, ast, dis,
tokenize), and csv, which only the CSV output branches load."""

import ast
import json
import os
import subprocess
import sys

import pytest

import plethy

HEAVY = ("dataclasses", "inspect", "ast", "dis", "tokenize", "csv")

CHECK = """
import json, sys
heavy = json.loads(sys.argv[1])
before = set(sys.modules)
stages = {}
import plethy.cli
stages["import plethy.cli"] = [m for m in heavy if m in sys.modules and m not in before]
for argv in (["verify", "all"], ["table", "5"]):
    code = plethy.cli.main(argv)
    stages[" ".join(argv)] = [m for m in heavy if m in sys.modules and m not in before] if code == 0 else code
print()
print(json.dumps(stages))
"""


def run_python(tmp_path, *argv):
    """A fresh interpreter on this plethy, as the benchmark starts one: no
    bytecode written, a private cache directory, no config file."""
    env = dict(
        os.environ,
        PYTHONPATH=os.path.dirname(os.path.dirname(plethy.__file__)),
        PYTHONDONTWRITEBYTECODE="1",
        XDG_CACHE_HOME=str(tmp_path / "cache"),
    )
    env.pop("PLETHY_CONFIG", None)
    return subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True, timeout=60)


def test_commands_leave_heavy_modules_unloaded(tmp_path):
    proc = run_python(tmp_path, "-c", CHECK, json.dumps(HEAVY))
    assert proc.returncode == 0, proc.stderr
    stages = json.loads(proc.stdout.splitlines()[-1])
    assert stages == {"import plethy.cli": [], "verify all": [], "table 5": []}


TABLE_5_CSV = """\
lambda,5,"4,1","3,2","3,1,1","2,2,1","2,1,1,1","1,1,1,1,1"
5,1,1,1,1,1,1,1
"4,1",-1,0,-1,1,0,2,4
"3,2",0,-1,1,-1,1,1,5
"3,1,1",1,0,0,0,-2,0,6
"2,2,1",0,1,-1,-1,1,-1,5
"2,1,1,1",-1,0,1,1,0,-2,4
"1,1,1,1,1",1,-1,-1,1,1,-1,1
"""

BOXPLUS_CSV = """\
kind,key,value
direct,3,2
direct,"2,1",0
direct,"1,1,1",80
plethystic,3,2
plethystic,"2,1",0
plethystic,"1,1,1",80
multiplicity,3,14
multiplicity,"2,1",26
multiplicity,"1,1,1",14
agreement,,true
"""


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["table", "5", "--format", "csv"], TABLE_5_CSV),
        (["boxplus", "2,1", "--d", "2", "--route", "both", "--format", "csv"], BOXPLUS_CSV),
    ],
)
def test_csv_branches_import_csv_themselves(tmp_path, argv, expected):
    proc = run_python(tmp_path, "-m", "plethy.cli", *argv)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == expected


PACKAGE = os.path.dirname(plethy.__file__)

# plethy's modules from the bottom up: each imports only modules before it.
LAYERS = ["config", "partitions", "abacus", "mn", "symfunc", "characters", "verify", "cli"]


def imported_modules(name):
    """Every module plethy/<name>.py imports, nested imports included: plethy's
    own relative, as ".config"; `from . import symfunc` gives ".symfunc"."""
    with open(os.path.join(PACKAGE, f"{name}.py"), encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    modules = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module or "")
            modules += [base + alias.name for alias in node.names] if base == "." else [base]
    return modules


def test_config_imports_no_plethy_module():
    """Loading the settings loads no engine: config holds the limits that
    mn, verify and cli import, and imports nothing from plethy itself."""
    modules = imported_modules("config")
    assert "os" in modules
    assert [name for name in modules if name[0] == "." or name.partition(".")[0] == "plethy"] == []


def test_every_module_has_a_layer():
    assert sorted(name[:-3] for name in os.listdir(PACKAGE) if name.endswith(".py")) == sorted(LAYERS + ["__init__"])


@pytest.mark.parametrize("name", LAYERS)
def test_modules_import_only_lower_layers(name):
    """mn reads no symmetric function and partitions no engine, so the
    kernel loads and runs without the layers built on it."""
    own = {
        module.lstrip(".").removeprefix("plethy.").partition(".")[0]
        for module in imported_modules(name)
        if module[0] == "." or module.partition(".")[0] == "plethy"
    }
    assert own <= set(LAYERS[: LAYERS.index(name)])
