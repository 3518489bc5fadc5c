"""plethy benchmark: one workload per run, set up and measured in fresh processes.

    python3 benchmarks/run.py --workload verify-warm --seed 1 --seconds 25 --trace 0

--trace 0 reports the end-to-end metrics (iter_s, setup_s, peak_rss_mb).
The code under test (src/) takes turns with a frozen copy of plethy
(benchmarks/reference): in two threads of one process for the in-process
workloads, in two processes step by step for the CLI workload, and in
pairs of fresh processes for set-up.  iter_s and setup_s are the code
under test's mean time over the reference's, times the reference's pinned
seconds (REFERENCE_S), so that neighbours slowing the machine down cancel
out.  --trace 1 makes a separate run of the code under test alone, half
untraced and half traced, and reports the per-layer metrics and
trace.overhead_ratio.  --smoke times one set-up pair instead of several,
for quick checks.  benchmarks/README.md defines every workload and metric.

Every child gets a private XDG_CACHE_HOME under benchmarks/out and no
PLETHY_CONFIG, so no run reads or writes a user's cache or config.  Machine
facts and the full result are written to benchmarks/out/<run>/result.json
and printed before the last stdout line, which is one JSON object with the
keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "workloads.py")
RUNNER = os.path.join(HERE, "cli_runner.py")
TREES = {"current": os.path.join(ROOT, "src"), "reference": os.path.join(HERE, "reference")}
# Workloads that call plethy's API in-process: their paired run loads both
# trees into one process (workloads.py --paired).  The others pair processes.
IN_PROCESS = {"thm1-cold", "verify-warm"}
WORKLOADS = ("thm1-cold", "verify-warm", "cli-cachefile")
# Seconds per iteration and per set-up of the reference copy when it runs
# alone on a quiet machine (a 2-vCPU Intel Xeon VM, Python 3.11.7): medians
# of solo iterations and the lower quartile of set-up samples.  They only
# fix the unit; a change to plethy moves iter_s and setup_s by the ratio
# by which it moves the code under test against the reference.
REFERENCE_S = {
    "thm1-cold": {"iter_s": 1.07, "setup_s": 0.085},
    "verify-warm": {"iter_s": 0.066, "setup_s": 0.27},
    "cli-cachefile": {"iter_s": 1.01, "setup_s": 2.0},
}
# Set-up is timed in at least SETUP_PAIRS pairs of fresh processes, and in
# as many more as start within SETUP_SECONDS.
SETUP_PAIRS = 3
SETUP_SECONDS = 3.0
TAIL_BEYOND = 10
DEADLINE_S = 170


def machine_facts(env: dict) -> dict:
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    config = subprocess.run(
        [sys.executable, RUNNER, "config", "show"], env=env, capture_output=True, text=True, timeout=60
    )
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cpu_model": cpu_model,
        "loadavg_start": os.getloadavg(),
        "plethy_config": config.stdout.splitlines(),
    }


class Worker:
    """A workload process of one tree: set-up is timed until it prints READY."""

    def __init__(self, tree: str, argv: list[str], env: dict, deadline: float):
        self.tree = tree
        self.deadline = deadline
        start = perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, WORKER, *argv],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            env=dict(env, PLETHY_BENCH_SRC=TREES[tree]),
            cwd=ROOT,
        )
        line = self.readline()
        self.setup_s = perf_counter() - start
        if line.strip() != "READY":
            self.close()
            raise RuntimeError(f"{tree} workload set-up failed or timed out ({' '.join(argv)})")

    def readline(self) -> str:
        ready, _, _ = select.select([self.proc.stdout], [], [], max(0.0, self.deadline - perf_counter()))
        return self.proc.stdout.readline() if ready else ""

    def request(self, command: str) -> dict:
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()
        line = self.readline()
        if not line:
            raise RuntimeError(f"{self.tree} workload process gave no answer to {command}")
        return json.loads(line)

    def wait(self) -> None:
        code = self.proc.wait(timeout=max(0.0, self.deadline - perf_counter()))
        if code:
            raise RuntimeError(f"{self.tree} workload process exited with code {code}")

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdin.close()
        self.proc.stdout.close()


def pair_order(index: int) -> tuple[str, str]:
    """Which tree runs first alternates, so neither always follows the other."""
    return ("current", "reference") if index % 2 == 0 else ("reference", "current")


def measure_paired(workers: dict, seconds: float) -> dict:
    """Paired iterations of two processes for the given seconds (at least one pair).

    The two trees' processes take turns step by step, so both meet the same
    spells of a neighbour's load; which goes first alternates by iteration
    and by step.  A pair whose current iteration failed counts as attempted
    and gives no time.
    """
    results = {tree: {"times": [], "attempted": 0, "problems": []} for tree in workers}
    end = perf_counter() + seconds
    pairs = 0
    while not pairs or perf_counter() < end:
        totals, outcome, step = dict.fromkeys(workers, 0.0), {}, 0
        while len(outcome) < len(workers):
            for tree in pair_order(pairs + step):
                if tree not in outcome:
                    reply = workers[tree].request("step")
                    totals[tree] += reply["s"]
                    if reply["done"]:
                        outcome[tree] = reply["problems"]
            step += 1
        pairs += 1
        for tree, result in results.items():
            result["attempted"] += 1
            result["problems"].extend(outcome[tree][: max(0, 5 - len(result["problems"]))])
        if not outcome["current"] and not outcome["reference"]:
            for tree, result in results.items():
                result["times"].append(totals[tree])
    return results


def clean(run_dir: str) -> None:
    """Delete the workloads' cache files and scratch; keep the last spans."""
    spans = os.path.join(run_dir, "current", "spans.json")
    if os.path.exists(spans):
        os.replace(spans, os.path.join(run_dir, "spans.json"))
    for name in os.listdir(run_dir):
        if os.path.isdir(os.path.join(run_dir, name)):
            shutil.rmtree(os.path.join(run_dir, name))


def unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("_ratio") else "count"


def tail(times: list[float]) -> tuple[float, float]:
    """The highest percentile with TAIL_BEYOND samples beyond it, never below the median."""
    ordered = sorted(times)
    index = len(ordered) - TAIL_BEYOND - 1
    if index <= (len(ordered) - 1) // 2:
        return statistics.median(ordered), 50.0
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def scaled(workload: str, metric: str, current: list[float], reference: list[float]) -> float:
    """Current mean over reference mean, in the reference's pinned seconds."""
    if not current or not reference:
        return 0.0
    return statistics.fmean(current) / statistics.fmean(reference) * REFERENCE_S[workload][metric]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="plethy benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="time one set-up pair instead of several")
    args = parser.parse_args(argv)
    deadline = perf_counter() + DEADLINE_S

    if not os.path.isfile(os.path.join(TREES["current"], "plethy", "cli.py")):
        print(f"error: no plethy source tree at {TREES['current']}", file=sys.stderr)
        return 2

    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix=f"{args.workload}-seed{args.seed}-trace{args.trace}-", dir=out_dir)
    env = {key: value for key, value in os.environ.items() if not key.startswith("PLETHY_")}
    env["XDG_CACHE_HOME"] = os.path.join(run_dir, "xdg")
    # Every process compiles from source, so no run depends on bytecode an
    # earlier run left behind.
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    facts = machine_facts(env)
    common = ["--workload", args.workload, "--seed", str(args.seed)]

    def start(tree: str, workdir: str, *extra: str) -> Worker:
        return Worker(tree, [*common, "--workdir", os.path.join(run_dir, workdir), *extra], env, deadline)

    setups = {"current": [], "reference": []}
    rss_kb, attempted, passed, problems = 0, 0, 0, []

    def tally(result: dict) -> None:
        nonlocal attempted, passed
        attempted += result["attempted"]
        passed += len(result["times"])
        problems.extend(result["problems"][: max(0, 5 - len(problems))])

    try:
        with contextlib.ExitStack() as stack:
            if args.trace:
                worker = stack.enter_context(contextlib.closing(start("current", "current")))
                untraced = worker.request(f"measure {args.seconds / 2}")["current"]
                worker.request("trace")
                traced = worker.request(f"measure {args.seconds / 2}")["current"]
                final = worker.request("finish")
                worker.wait()
                tally(untraced)
                tally(traced)
            else:
                # Fresh processes of both trees, timed until READY.  The first
                # current one also runs one checked iteration, for peak_rss_mb.
                index, min_pairs = 0, 1 if args.smoke else SETUP_PAIRS
                setup_end = perf_counter() + (0.0 if args.smoke else SETUP_SECONDS)
                while index < min_pairs or perf_counter() < setup_end:
                    for tree in pair_order(index):
                        worker = stack.enter_context(contextlib.closing(start(tree, f"setup{index}-{tree}")))
                        setups[tree].append(worker.setup_s)
                        if tree == "current" and not index:
                            reply = worker.request("iterate")
                            passed_s = [reply["s"]] if reply["s"] is not None else []
                            tally({"times": passed_s, "attempted": 1, "problems": reply["problems"]})
                            rss_kb = worker.request("finish")["rss_kb"]
                        else:
                            worker.request("finish")
                        worker.wait()
                    index += 1
                if args.workload in IN_PROCESS:
                    worker = stack.enter_context(contextlib.closing(start("current", "paired", "--paired")))
                    results = worker.request(f"measure {args.seconds}")
                    worker.request("finish")
                    worker.wait()
                else:
                    workers = {tree: stack.enter_context(contextlib.closing(start(tree, tree))) for tree in TREES}
                    results = measure_paired(workers, args.seconds)
                    for worker in workers.values():
                        worker.request("finish")
                        worker.wait()
                if results["reference"]["problems"]:
                    raise RuntimeError("the reference copy failed its check: " + "; ".join(results["reference"]["problems"]))
                tally(results["current"])
    except (RuntimeError, OSError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        clean(run_dir)

    if args.trace:
        untraced, traced = untraced["times"], traced["times"]
        overhead = min(traced) / min(untraced) if traced and untraced else 0.0
        layers = dict(final["layers"], **{"trace.overhead_ratio": overhead})
        metrics = {name: {"value": value, "unit": unit(name)} for name, value in layers.items()}
        detail = {"traced_iterations": len(traced), "untraced_iterations": len(untraced)}
        raw = {"untraced": untraced, "traced": traced}
    else:
        raw = {tree: results[tree]["times"] for tree in TREES}
        current = raw["current"] or [0.0]
        tail_s, percentile = tail(current)
        metrics = {
            "iter_s": {"value": scaled(args.workload, "iter_s", raw["current"], raw["reference"]), "unit": "s"},
            "setup_s": {"value": scaled(args.workload, "setup_s", setups["current"], setups["reference"]), "unit": "s"},
            "peak_rss_mb": {"value": rss_kb / 1024, "unit": "MB"},
        }
        detail = {
            "iterations": {tree: len(times) for tree, times in raw.items()},
            "raw_iter_s_median": statistics.median(current),
            "raw_iter_s_tail": tail_s,
            "tail_percentile": percentile,
            "raw_reference_iter_s_median": statistics.median(raw["reference"] or [0.0]),
            "setup_s_samples": setups,
        }
    summary = {"correct": passed == attempted and attempted > 0, "attempted": attempted, "failed": attempted - passed}
    record = dict(summary, workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
                  machine=facts, detail=detail, problems=problems, metrics=metrics, times=raw)
    with open(os.path.join(run_dir, "result.json"), "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2)
    for problem in problems:
        print(f"failed iteration: {problem}", file=sys.stderr)
    print(json.dumps({"machine": facts, "seed": args.seed, "detail": detail}))
    print(json.dumps(dict(summary, metrics=metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
