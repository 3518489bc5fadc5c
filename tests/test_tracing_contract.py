"""The benchmark tracer (benchmarks/tracing.py) wraps plethy's layer entry
points by module attribute name.  A refactor that deletes or renames one of
them must fail here, not first in a benchmark run."""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SCRIPT = """
import json

import tracing
from plethy import verify

tracer = tracing.Tracer()
tracing.install(tracer)
report = verify.verify_theorem1(2, 2)
print(json.dumps({"status": report.status, "calls": tracer.snapshot()["calls"]}))
"""


def test_installed_tracer_counts_every_layer():
    path = os.pathsep.join([os.path.join(ROOT, "src"), os.path.join(ROOT, "benchmarks")])
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["status"] == "PASS"
    for name in (
        "mn.mn_value",
        "abacus.remove_ribbons",
        "symfunc.power_d",
        "symfunc.hall_inner",
        "characters.direct",
        # Read by the per-layer metrics of BENCHMARK.json.
        "symfunc.to_power",
        "symfunc.schur_to_power",
        "symfunc.power_to_schur",
        "characters.plethystic",
        "characters.decompose",
    ):
        assert result["calls"].get(name, 0) > 0, name
