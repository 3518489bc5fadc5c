"""One benchmark workload, set up and measured in a fresh process.

    python3 benchmarks/workloads.py --workload verify-warm --seed 1 --workdir benchmarks/out/tmp

Prints READY on stdout once set-up is done (run.py times set-up up to that
line), then serves one command per stdin line, each answered by one JSON
line on stdout:

    step      the next step of the iteration under way (see Iterations):
              {"s": seconds, "done": false}, or at its last step
              {"s": seconds, "done": true, "problems": [...]}
    iterate   one whole iteration and its correctness gate:
              {"s": seconds or null if it failed, "problems": [...]}
    measure S whole iterations for S seconds: {"current": {"times": [...],
              "attempted": n, "problems": [...]}}; with --paired the
              reference copy runs beside it (see measure_threads) and the
              reply also holds "reference"
    trace     trace every later iteration (see tracing.py)
    finish    {"rss_kb": ..., "layers": {metric: median over traced
              iterations}}, writes the last traced spans, and exits

The code under test runs its iterations one after another, one client.
PLETHY_BENCH_SRC names the directory that holds the plethy package to
load (default: src/ of the source tree); run.py points it at
benchmarks/reference to run the frozen reference copy in a process of its
own.

The seed only reorders work: the sweep calls within an iteration, and the
line order of the CLI workload's seed cache file.  Outputs never depend on
it, because the cache is a pure memo.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import importlib.util
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import threading
import traceback
from time import perf_counter, thread_time

HERE = os.path.dirname(os.path.abspath(__file__))
RUNNER = os.path.join(HERE, "cli_runner.py")
SRC = os.environ.get("PLETHY_BENCH_SRC") or os.path.join(os.path.dirname(HERE), "src")
REFERENCE = os.path.join(HERE, "reference", "plethy")
sys.path.insert(0, SRC)

import plethy.mn  # noqa: E402
import plethy.verify  # noqa: E402
import tracing  # noqa: E402

# Pinned outputs of the code this benchmark was written against.  Reports
# are compared without timings, in the byte format of `plethy verify all`.
VERIFY_ALL_SHA256 = "e619eef16c8de42c8f47d0066965e675b9350cf83cf9982de85e8e2267cedf47"
VERIFY_ALL_CASES = 1061
THM1_CALLS = ((5, 4), (6, 3))
THM1_MAX = (6, 4)
THM1_COLD_SHA256 = "c06123b8883046b074d5152e972ac0c2accaee7ca644f74f003a8f2168621a2d"
THM1_COLD_CASES = 18
THM1_COLD_STATES = 40058
QUOTIENT_ARGV = ("quotient", "4,4,2,2", "--d", "2")
QUOTIENT_SHA256 = "5ce03ecf17836e5efb72d374f5096523b770afdd0de27792bfab6b7ca6d7b07d"
COMMAND_TIMEOUT_S = 120
CLI_METRICS = ("cli.start_s", "cli.import_s", "cli.write_s", "cli.read_s")


def sha256(data: str | bytes) -> str:
    return hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()


def reports_text(reports) -> str:
    """Timing-free JSON of several reports, exactly as `plethy verify all` prints it."""
    payload = {
        "reports": [report.without_timing().to_json_dict() for report in reports],
        "status": "PASS" if all(report.status == "PASS" for report in reports) else "FAIL",
    }
    return json.dumps(payload, indent=2) + "\n"


def check_reports(reports, cases: int, digest: str) -> list[str]:
    problems = [f"{r.theorem} {r.params} status {r.status}" for r in reports if r.status != "PASS"]
    checked = sum(r.cases_checked for r in reports)
    if checked != cases:
        problems.append(f"cases_checked {checked}, expected {cases}")
    if sha256(reports_text(reports)) != digest:
        problems.append("report digest differs from the pinned one")
    return problems


class InProcess:
    """Base of the workloads that call plethy's API in this process."""

    def __init__(self, rng: random.Random, workdir: str, package=plethy):
        self.rng = rng
        self.workdir = workdir
        self.verify = package.verify
        self.cache_class = package.mn.CharCache
        self.tracer = None

    def prepare(self) -> None:
        if self.tracer is not None:
            self.tracer.snapshot()

    def start_tracing(self) -> None:
        self.tracer = tracing.Tracer()
        tracing.install(self.tracer)
        self.cache_class = tracing.counting_cache_class(self.tracer)

    def layers(self, output) -> tuple[dict, dict]:
        snap = self.tracer.snapshot()
        snap["counts"]["mn.states"] = output["states"]
        metrics = dict(tracing.layer_metrics(snap), **dict.fromkeys(CLI_METRICS, 0.0))
        return metrics, {"in-process": snap["spans"]}

    def rss_kb(self) -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def iterate(self):
        """A single step: in-process iterations are timed whole (see measure_threads)."""
        yield from ()
        return self.run()


class Thm1Cold(InProcess):
    """Theorem 1 at (5, 4) and (6, 3), each iteration on a fresh memo."""

    def setup(self) -> None:
        pass

    def run(self) -> dict:
        cache = self.cache_class()
        order = list(THM1_CALLS)
        self.rng.shuffle(order)
        reports = {(n, d): self.verify.verify_theorem1(n, d, *THM1_MAX, cache) for n, d in order}
        return {"reports": [reports[call] for call in THM1_CALLS], "states": len(cache)}

    def check(self, output) -> list[str]:
        problems = check_reports(output["reports"], THM1_COLD_CASES, THM1_COLD_SHA256)
        if output["states"] != THM1_COLD_STATES:
            problems.append(f"mn.states {output['states']}, expected {THM1_COLD_STATES}")
        return problems


class VerifyWarm(InProcess):
    """Every default sweep, repeated against one memo that set-up filled."""

    def setup(self) -> None:
        self.calls = []
        originals = {name: getattr(self.verify, name) for name in tracing.SWEEPS}

        def recorder(name):
            def record(*args, **kwargs):
                self.calls.append((name, args, kwargs))
                return originals[name](*args, **kwargs)

            return record

        for name in tracing.SWEEPS:
            setattr(self.verify, name, recorder(name))
        try:
            self.cache = self.fill()
        finally:
            for name, sweep in originals.items():
                setattr(self.verify, name, sweep)
        self.recorded_cache = self.cache

    def fill(self):
        cache = self.cache_class()
        problems = check_reports(self.verify.run_verify_all(cache=cache), VERIFY_ALL_CASES, VERIFY_ALL_SHA256)
        if problems:
            raise RuntimeError("cold run_verify_all failed its check: " + "; ".join(problems))
        return cache

    def start_tracing(self) -> None:
        super().start_tracing()
        self.cache = self.fill()

    def run(self) -> dict:
        cache = self.cache
        before = len(cache)
        order = list(range(len(self.calls)))
        self.rng.shuffle(order)
        reports = [None] * len(self.calls)
        for index in order:
            name, args, kwargs = self.calls[index]
            args = tuple(cache if arg is self.recorded_cache else arg for arg in args)
            kwargs = {key: cache if arg is self.recorded_cache else arg for key, arg in kwargs.items()}
            reports[index] = getattr(self.verify, name)(*args, **kwargs)
        return {"reports": reports, "states": len(cache) - before}

    def check(self, output) -> list[str]:
        problems = check_reports(output["reports"], VERIFY_ALL_CASES, VERIFY_ALL_SHA256)
        if output["states"]:
            problems.append(f"warm memo gained {output['states']} states")
        return problems


class CliCacheFile:
    """`plethy` commands against private cache files: start-up, cold write, warm read."""

    def __init__(self, rng: random.Random, workdir: str):
        self.rng = rng
        self.workdir = workdir
        self.traced = False
        self.child_rss_kb = 0
        self.env = {key: value for key, value in os.environ.items() if not key.startswith("PLETHY_")}
        self.env["PLETHY_BENCH_SRC"] = SRC

    def cache_file(self, role: str) -> str:
        return os.path.join(self.workdir, role, "plethy", "mn_cache.txt")

    def plethy(self, argv, role: str) -> dict:
        stats_path = os.path.join(self.workdir, f"stats-{role}.json")
        env = dict(self.env, XDG_CACHE_HOME=os.path.join(self.workdir, role), PLETHY_BENCH_STATS=stats_path)
        if self.traced:
            env["PLETHY_BENCH_TRACE"] = "1"
        start = perf_counter()
        proc = subprocess.run(
            [sys.executable, RUNNER, *argv], env=env, capture_output=True, timeout=COMMAND_TIMEOUT_S
        )
        seconds = perf_counter() - start
        stats = {}
        if os.path.exists(stats_path):
            with open(stats_path, encoding="utf-8") as handle:
                stats = json.load(handle)
            os.remove(stats_path)
        if proc.returncode:
            sys.stderr.write(proc.stderr.decode(errors="replace"))
        return {"argv": argv, "s": seconds, "code": proc.returncode, "stdout": proc.stdout, "stats": stats}

    def setup(self) -> None:
        table = self.plethy(("table", "16"), "seed")
        verify = self.plethy(("verify", "all"), "seed")
        if table["code"] or verify["code"] or sha256(verify["stdout"]) != VERIFY_ALL_SHA256:
            raise RuntimeError("building the seed cache file failed its check")
        with open(self.cache_file("seed"), "rb") as handle:
            lines = handle.read().splitlines(keepends=True)
        self.seed_lines = set(lines)
        self.rng.shuffle(lines)
        self.seed_bytes = b"".join(lines)
        os.makedirs(os.path.dirname(self.cache_file("read")), exist_ok=True)

    def prepare(self) -> None:
        if os.path.exists(self.cache_file("write")):
            os.remove(self.cache_file("write"))
        with open(self.cache_file("read"), "wb") as handle:
            handle.write(self.seed_bytes)

    def iterate(self):
        """Three steps, one per command."""
        output = {"start": self.plethy(QUOTIENT_ARGV, "write")}
        yield
        output["write"] = self.plethy(("verify", "all"), "write")
        yield
        output["read"] = self.plethy(("verify", "all"), "read")
        if not self.traced:
            rss = max(command["stats"].get("rss_kb", 0) for command in output.values())
            self.child_rss_kb = max(self.child_rss_kb, rss)
        return output

    def check(self, output) -> list[str]:
        problems = [f"plethy {' '.join(c['argv'])} exited {c['code']}" for c in output.values() if c["code"]]
        if sha256(output["start"]["stdout"]) != QUOTIENT_SHA256:
            problems.append("quotient output differs from the pinned one")
        if output["write"]["stdout"] != output["read"]["stdout"]:
            problems.append("verify all printed different reports on an empty and on a full cache file")
        if sha256(output["read"]["stdout"]) != VERIFY_ALL_SHA256:
            problems.append("verify all output differs from the pinned one")
        if os.path.getsize(self.cache_file("read")) != len(self.seed_bytes):
            problems.append("verify all on a full cache file changed it")
        if not os.path.exists(self.cache_file("write")):
            problems.append("verify all on an empty cache file wrote nothing")
        else:
            with open(self.cache_file("write"), "rb") as handle:
                if not set(handle.read().splitlines(keepends=True)) <= self.seed_lines:
                    problems.append("verify all on an empty cache file wrote entries the seed file lacks")
        return problems

    def start_tracing(self) -> None:
        self.traced = True

    def layers(self, output) -> tuple[dict, dict]:
        snap = tracing.merge([c["stats"]["trace"] for c in output.values()])
        metrics = tracing.layer_metrics(snap)
        metrics["cli.start_s"] = output["start"]["s"]
        metrics["cli.import_s"] = sum(c["stats"]["import_s"] for c in output.values())
        metrics["cli.write_s"] = output["write"]["s"]
        metrics["cli.read_s"] = output["read"]["s"]
        return metrics, {role: c["stats"]["trace"]["spans"] for role, c in output.items()}

    def rss_kb(self) -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss + self.child_rss_kb


WORKLOADS = {"thm1-cold": Thm1Cold, "verify-warm": VerifyWarm, "cli-cachefile": CliCacheFile}


class Iterations:
    """Runs a workload's iterations step by step and gates each one.

    A workload's iterate() is a generator: each yield ends a step, where
    run.py may switch to the other tree's process, and its return value is
    the iteration's output.  Only the steps are timed, by the given clock;
    prepare() and the correctness check are not.
    """

    def __init__(self, workload, clock=perf_counter):
        self.workload = workload
        self.clock = clock
        self.traced = False
        self.steps = None
        self.layers: dict[str, list] = {}
        self.spans: dict = {}

    def step(self) -> dict:
        """The next step of the iteration under way, starting one if none is.

        The reply holds the step's seconds; the last step of an iteration
        also holds the problems its check found (none if it passed).
        """
        if self.steps is None:
            self.workload.prepare()
            self.steps = self.workload.iterate()
        start = self.clock()
        try:
            next(self.steps)
            return {"s": self.clock() - start, "done": False}
        except StopIteration as stop:
            seconds = self.clock() - start
            self.steps = None
            return {"s": seconds, "done": True, "problems": self.check(stop.value)}
        except Exception:
            seconds = self.clock() - start
            self.steps = None
            return {"s": seconds, "done": True, "problems": [traceback.format_exc()]}

    def check(self, output) -> list[str]:
        try:
            problems = self.workload.check(output)
            if not problems and self.traced:
                metrics, self.spans = self.workload.layers(output)
                for name, value in metrics.items():
                    self.layers.setdefault(name, []).append(value)
        except Exception:
            problems = [traceback.format_exc()]
        return problems[:5]

    def iterate(self) -> dict:
        """A whole iteration: its seconds (None if it failed) and problems."""
        seconds = 0.0
        while True:
            reply = self.step()
            seconds += reply["s"]
            if reply["done"]:
                return {"s": None if reply["problems"] else seconds, "problems": reply["problems"]}

    def measure(self, seconds: float) -> dict:
        """Whole iterations for the given seconds (at least one)."""
        times, attempted, problems = [], 0, []
        end = perf_counter() + seconds
        while not attempted or perf_counter() < end:
            reply = self.iterate()
            attempted += 1
            if reply["s"] is None:
                problems.extend(reply["problems"][: max(0, 5 - len(problems))])
            else:
                times.append(reply["s"])
        return {"times": times, "attempted": attempted, "problems": problems}


def load_reference():
    """The frozen copy under benchmarks/reference, imported as the package
    plethy_reference beside the plethy under test (its modules import each
    other by relative imports, so the name does not matter to them)."""
    spec = importlib.util.spec_from_file_location(
        "plethy_reference", os.path.join(REFERENCE, "__init__.py"), submodule_search_locations=[REFERENCE]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = package
    spec.loader.exec_module(package)
    importlib.import_module("plethy_reference.mn")
    importlib.import_module("plethy_reference.verify")
    return package


def measure_threads(trees: dict, seconds: float) -> dict:
    """Both trees' iterations for the given seconds, each tree in its own thread.

    The threads take turns holding the interpreter lock at the interpreter's
    switch interval (5 ms by default), so both meet the same spells of a
    neighbour's load within milliseconds.
    Each iteration is timed by its thread's CPU clock, which stands still
    while the other thread holds the lock.
    """
    results = {}

    def run(tree: str) -> None:
        results[tree] = trees[tree].measure(seconds)

    threads = [threading.Thread(target=run, args=(tree,)) for tree in trees]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return results


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--paired", action="store_true", help="also load the reference copy (in-process workloads)")
    args = parser.parse_args(argv)

    os.makedirs(args.workdir, exist_ok=True)
    workloads = {"current": WORKLOADS[args.workload](random.Random(args.seed), args.workdir)}
    if args.paired:
        reference = load_reference()
        workloads["reference"] = WORKLOADS[args.workload](random.Random(args.seed), args.workdir, reference)
    for workload in workloads.values():
        workload.setup()
    print("READY", flush=True)

    workload = workloads["current"]
    iterations = Iterations(workload)
    for command in sys.stdin:
        command, _, argument = command.strip().partition(" ")
        if command == "step":
            reply = iterations.step()
        elif command == "iterate":
            reply = iterations.iterate()
        elif command == "measure" and args.paired:
            paired = {tree: Iterations(each, thread_time) for tree, each in workloads.items()}
            reply = measure_threads(paired, float(argument))
        elif command == "measure":
            reply = {"current": iterations.measure(float(argument))}
        elif command == "trace":
            workload.start_tracing()
            iterations.traced, reply = True, {}
        elif command == "finish":
            break
        else:
            reply = {"s": None, "done": True, "problems": [f"unknown command {command!r}"]}
        print(json.dumps(reply), flush=True)
    if iterations.traced:
        with open(os.path.join(args.workdir, "spans.json"), "w", encoding="utf-8") as handle:
            json.dump(iterations.spans, handle)
    layers = {name: statistics.median(values) for name, values in iterations.layers.items()}
    print(json.dumps({"rss_kb": workload.rss_kb(), "layers": layers}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
