"""Command-line driver.

Subcommands: table, boxplus, quotient, verify, cache, config.  Each cmd_*
returns its text and exit code; main writes the text to stdout or --out,
then flushes the cache.  Output is JSON (default) or CSV where a table
shape makes sense.  Exit codes: 0 success or all sweeps PASS, 1 a
verification sweep FAILed, 2 usage, parse, or limit errors.

Reports omit wall-clock timings unless --timings is given, so identical
inputs produce byte-identical output files.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys

from . import verify as verify_mod
from .abacus import d_core, d_quotient, d_sign
from .characters import (
    ROUTE_DIRECT,
    ROUTE_PLETHYSTIC,
    boxplus_classfunction,
    decompose,
)
from .config import MAX_QUOTIENT_D, OUTPUT_FORMATS, Config, check_limit, load_config
from .mn import CharCache, character_table
from .partitions import format_partition, parse_partition, partitions_of
from .symfunc import format_rational

ROUTE_BOTH = "both"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="plethy",
        description="Exact symmetric-group character computations around the grid-subdivision embedding.",
    )
    parser.add_argument("--config", help="path to a key = value config file (default: $PLETHY_CONFIG if set)")
    commands = parser.add_subparsers(dest="command", required=True)

    p_table = commands.add_parser("table", help="character table of the symmetric group on n letters")
    p_table.add_argument("n", type=int)
    p_table.add_argument("--format", choices=OUTPUT_FORMATS, help="output format (default from config)")
    p_table.add_argument("--out", help="write to this path instead of stdout")

    p_box = commands.add_parser("boxplus", help="grid-subdivided class function and its decomposition")
    p_box.add_argument("lam", metavar="LAMBDA", help="partition, e.g. 4,4,2,2")
    p_box.add_argument("--d", type=int, required=True)
    p_box.add_argument("--route", choices=(ROUTE_DIRECT, ROUTE_PLETHYSTIC, ROUTE_BOTH), default=ROUTE_DIRECT)
    p_box.add_argument("--format", choices=OUTPUT_FORMATS, help="output format (default from config)")
    p_box.add_argument("--out", help="write to this path instead of stdout")

    p_quot = commands.add_parser("quotient", help="core, quotient, and sign of a partition")
    p_quot.add_argument("nu", metavar="NU", help="partition, e.g. 2,2,2,2")
    p_quot.add_argument("--d", type=int, required=True)
    p_quot.add_argument("--out", help="write to this path instead of stdout")

    p_verify = commands.add_parser("verify", help="run verification sweeps")
    p_verify.add_argument("which", choices=(*verify_mod.sweep_table(), "all"))
    p_verify.add_argument("--n", type=int)
    p_verify.add_argument("--d", type=int)
    p_verify.add_argument("--max-size", type=int, dest="max_size")
    p_verify.add_argument("--timings", action="store_true", help="include wall-clock milliseconds in reports")
    p_verify.add_argument("--out", help="write to this path instead of stdout")

    p_cache = commands.add_parser("cache", help="inspect or clear the on-disk character cache")
    p_cache.add_argument("action", choices=("info", "clear"))

    p_config = commands.add_parser("config", help="show the effective configuration")
    p_config.add_argument("action", choices=("show",))

    return parser


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _csv_text(rows) -> str:
    import csv  # only the CSV branches load it
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(rows)
    return buffer.getvalue()


def cmd_table(args: argparse.Namespace, config: Config, cache: CharCache) -> tuple[str, int]:
    rows = character_table(args.n, config.max_table_n, cache)
    texts = [format_partition(mu) for mu in partitions_of(args.n)]
    if args.format == "csv":
        return _csv_text([["lambda", *texts], *([lam, *row] for lam, row in zip(texts, rows))]), 0
    payload = {"n": args.n, "rows": {lam: dict(zip(texts, map(str, row))) for lam, row in zip(texts, rows)}}
    return _json_text(payload), 0


def cmd_boxplus(args: argparse.Namespace, config: Config, cache: CharCache) -> tuple[str, int]:
    lam = parse_partition(args.lam)
    n = sum(lam)
    # The limits verify thm1 applies to the same class functions.
    check_limit("--d", args.d, config.thm1_d)
    if n > config.thm1_n:
        raise ValueError(f"|lambda| = {n} exceeds the limit {config.thm1_n}")
    both = args.route == ROUTE_BOTH
    names = (ROUTE_DIRECT, ROUTE_PLETHYSTIC) if both else (args.route,)
    routes = {name: boxplus_classfunction(lam, args.d, name, cache) for name in names}
    mults = decompose(routes[names[0]], cache)
    decomposition = {format_partition(nu): format_rational(m) for nu, m in mults.items()}
    agree = both and routes[ROUTE_DIRECT].values == routes[ROUTE_PLETHYSTIC].values
    # Per route, the value at every class of n, zeros included, for either format.
    listings = {
        name: {format_partition(mu): format_rational(phi.values.get(mu, 0)) for mu in partitions_of(n)}
        for name, phi in routes.items()
    }
    if args.format == "csv":
        rows = [["kind", "key", "value"]]
        for name, listing in listings.items():
            rows += ([name if both else "value", key, value] for key, value in listing.items())
        rows += (["multiplicity", key, value] for key, value in decomposition.items())
        if both:
            rows.append(["agreement", "", "true" if agree else "false"])
        return _csv_text(rows), 0
    payload = {"lambda": format_partition(lam), "d": args.d, "route": args.route}
    classfunctions = {name: {"n": n, "values": listing} for name, listing in listings.items()}
    if both:
        payload.update(classfunctions, agreement=agree)
    else:
        payload["classfunction"] = classfunctions[args.route]
    payload["decomposition"] = decomposition
    return _json_text(payload), 0


def cmd_quotient(args: argparse.Namespace, config: Config, cache: None) -> tuple[str, int]:
    nu = parse_partition(args.nu)
    # No d-ribbon fits in nu when d > |nu|; the output has d components.
    check_limit("--d", args.d, min(max(sum(nu), 1), MAX_QUOTIENT_D))
    sign = d_sign(nu, args.d)
    payload = {
        "nu": format_partition(nu),
        "d": args.d,
        "core": format_partition(d_core(nu, args.d)),
        "quotient": [format_partition(piece) for piece in d_quotient(nu, args.d)],
        "sign": sign if sign is not None else "undefined",
    }
    return _json_text(payload), 0


def cmd_verify(args: argparse.Namespace, config: Config, cache: CharCache) -> tuple[str, int]:
    sweep = verify_mod.sweep_table(config).get(args.which)
    taken = ("d", sweep.size_name) if sweep else ()
    for flag in ("n", "d", "max_size"):
        if getattr(args, flag) is not None and flag not in taken:
            raise ValueError(f"verify {args.which} does not take --{flag.replace('_', '-')}")
    if sweep is None:
        reports = verify_mod.run_verify_all(config, cache)
    else:
        size, d = getattr(args, sweep.size_name), args.d
        if size is None or d is None:
            if sweep.default is None:
                raise ValueError(f"verify {args.which} has an empty grid under the configured limits; give --n and --d")
            size = sweep.default[0] if size is None else size
            d = sweep.default[1] if d is None else d
        reports = [sweep.function(size, d, *sweep.limits, cache)]
    if not args.timings:
        reports = [report.without_timing() for report in reports]
    all_pass = all(report.status == "PASS" for report in reports)
    if len(reports) == 1:
        payload = reports[0].to_json_dict()
    else:
        payload = {
            "reports": [report.to_json_dict() for report in reports],
            "status": "PASS" if all_pass else "FAIL",
        }
    return _json_text(payload), 0 if all_pass else 1


def cmd_cache(args: argparse.Namespace, config: Config, cache: None) -> tuple[str, int]:
    path = config.cache_path
    if args.action == "info":
        stored = _open_cache(path)
        payload = {"path": path, "exists": os.path.exists(path), "entries": len(stored), **stored.file_stats}
    else:
        # Deleted unread, so a corrupt file cannot block its own removal; a
        # file that another process removed first is cleared all the same.
        with contextlib.suppress(FileNotFoundError):
            os.remove(path)
        payload = {"path": path, "cleared": True}
    return _json_text(payload), 0


def _open_cache(path: str) -> CharCache:
    """Load the cache file, with one warning on stderr if it had malformed lines."""
    cache = CharCache(path)
    skipped = cache.file_stats["malformed_lines"]
    if skipped:
        print(f"plethy: skipped {skipped} malformed line{'s' * (skipped != 1)} in {path}", file=sys.stderr)
    return cache


# Each command, and whether main opens the cache file for it and flushes it after the output.
_COMMANDS = {
    "table": (cmd_table, True),
    "boxplus": (cmd_boxplus, True),
    "quotient": (cmd_quotient, False),
    "verify": (cmd_verify, True),
    "cache": (cmd_cache, False),
    "config": (lambda args, config, cache: (config.to_text(), 0), False),
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        path = args.config or os.environ.get("PLETHY_CONFIG")
        config = load_config(path) if path else Config()
        if "format" in args:
            args.format = args.format or config.output_format
        command, cached = _COMMANDS[args.command]
        cache = _open_cache(config.cache_path) if cached else None
        text, code = command(args, config, cache)
        if getattr(args, "out", None):
            with open(args.out, "w", encoding="utf-8", newline="") as handle:
                handle.write(text)
        else:
            sys.stdout.write(text)
        if cached:
            cache.flush()
        return code
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry_point() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry_point()
