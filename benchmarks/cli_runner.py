"""The `plethy` command for the benchmark: runs `plethy.cli.main` from the
source tree, as the installed console script would.

    python3 benchmarks/cli_runner.py verify all

With PLETHY_BENCH_STATS set to a path, it writes there, as JSON, the time
taken to import plethy.cli and the process's peak resident set size.  With
PLETHY_BENCH_TRACE=1 as well, the layers are traced (see tracing.py) and the
trace snapshot is added to that file.  PLETHY_BENCH_SRC names the directory
that holds the plethy package (default: src/ of the source tree).
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

SRC = os.environ.get("PLETHY_BENCH_SRC") or os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
)


def main(argv: list[str]) -> int:
    sys.path.insert(0, SRC)
    start = time.perf_counter()
    import plethy.cli

    import_s = time.perf_counter() - start
    stats_path = os.environ.get("PLETHY_BENCH_STATS")
    tracer = None
    if stats_path and os.environ.get("PLETHY_BENCH_TRACE") == "1":
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    code = plethy.cli.main(argv)
    if stats_path:
        stats = {"import_s": import_s, "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
        if tracer is not None:
            stats["trace"] = tracer.snapshot()
        with open(stats_path, "w", encoding="utf-8") as handle:
            json.dump(stats, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
