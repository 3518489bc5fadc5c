"""Command-line driver.

Subcommands: table, boxplus, quotient, verify, cache, config.  Output goes
to stdout or --out, as JSON (default) or CSV where a table shape makes
sense.  Exit codes: 0 success or all sweeps PASS, 1 a verification sweep
FAILed, 2 usage, parse, or limit errors.

Reports omit wall-clock timings unless --timings is given, so identical
inputs produce byte-identical output files.
"""

from __future__ import annotations

import argparse
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
from .config import MAX_QUOTIENT_D, Config, check_limit, load_config
from .mn import CharCache, character_table
from .partitions import (
    PartitionError,
    format_partition,
    parse_partition,
    partitions_of,
)
from .symfunc import SymFunc, format_rational

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
    p_table.add_argument("--format", choices=("json", "csv"), help="output format (default from config)")
    p_table.add_argument("--out", help="write to this path instead of stdout")

    p_box = commands.add_parser("boxplus", help="grid-subdivided class function and its decomposition")
    p_box.add_argument("lam", metavar="LAMBDA", help="partition, e.g. 4,4,2,2")
    p_box.add_argument("--d", type=int, required=True)
    p_box.add_argument("--route", choices=(ROUTE_DIRECT, ROUTE_PLETHYSTIC, ROUTE_BOTH), default=ROUTE_DIRECT)
    p_box.add_argument("--format", choices=("json", "csv"), help="output format (default from config)")
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


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _csv_text(rows) -> str:
    import csv  # only the CSV branches load it
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(rows)
    return buffer.getvalue()


def cmd_table(args: argparse.Namespace, config: Config, cache: CharCache) -> int:
    rows = character_table(args.n, config.max_table_n, cache)
    texts = [format_partition(mu) for mu in partitions_of(args.n)]
    if (args.format or config.output_format) == "csv":
        _emit(_csv_text([["lambda", *texts], *([lam, *row] for lam, row in zip(texts, rows))]), args.out)
    else:
        payload = {"n": args.n, "rows": {lam: dict(zip(texts, map(str, row))) for lam, row in zip(texts, rows)}}
        _emit(_json_text(payload), args.out)
    return 0


def _classfunction_json(phi: SymFunc, n: int) -> dict:
    """A class function of S_n as {"n": n, "values": ...} over every class of n, zeros included."""
    return {"n": n, "values": {format_partition(mu): format_rational(phi.values.get(mu, 0)) for mu in partitions_of(n)}}


def cmd_boxplus(args: argparse.Namespace, config: Config, cache: CharCache) -> int:
    lam = parse_partition(args.lam)
    # The limits verify thm1 applies to the same class functions.
    check_limit("--d", args.d, config.thm1_d)
    if sum(lam) > config.thm1_n:
        raise ValueError(f"|lambda| = {sum(lam)} exceeds the limit {config.thm1_n}")
    both = args.route == ROUTE_BOTH
    names = (ROUTE_DIRECT, ROUTE_PLETHYSTIC) if both else (args.route,)
    routes = {name: boxplus_classfunction(lam, args.d, name, cache) for name in names}
    primary = routes.get(ROUTE_DIRECT) or routes[ROUTE_PLETHYSTIC]
    mults = decompose(primary, cache)
    decomposition = {format_partition(nu): format_rational(m) for nu, m in mults.items()}
    agree = both and routes[ROUTE_DIRECT].values == routes[ROUTE_PLETHYSTIC].values
    if (args.format or config.output_format) == "csv":
        rows = [["kind", "key", "value"]]
        for route, phi in routes.items():
            kind = route if both else "value"
            rows += ([kind, format_partition(mu), format_rational(phi.values.get(mu, 0))] for mu in partitions_of(sum(lam)))
        rows += (["multiplicity", key, value] for key, value in decomposition.items())
        if both:
            rows.append(["agreement", "", "true" if agree else "false"])
        _emit(_csv_text(rows), args.out)
    else:
        payload = {"lambda": format_partition(lam), "d": args.d, "route": args.route}
        if both:
            payload["direct"] = _classfunction_json(routes[ROUTE_DIRECT], sum(lam))
            payload["plethystic"] = _classfunction_json(routes[ROUTE_PLETHYSTIC], sum(lam))
            payload["agreement"] = agree
        else:
            payload["classfunction"] = _classfunction_json(primary, sum(lam))
        payload["decomposition"] = decomposition
        _emit(_json_text(payload), args.out)
    return 0


def cmd_quotient(args: argparse.Namespace) -> int:
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
    _emit(_json_text(payload), args.out)
    return 0


def cmd_verify(args: argparse.Namespace, config: Config, cache: CharCache) -> int:
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
    _emit(_json_text(payload), args.out)
    return 0 if all_pass else 1


def cmd_cache(args: argparse.Namespace, config: Config) -> int:
    path = config.cache_path
    if args.action == "info":
        cache = _open_cache(path)
        payload = {"path": path, "exists": os.path.exists(path), "entries": len(cache), **cache.file_stats}
    else:
        # Deleted unread, so a corrupt file cannot block its own removal.
        if os.path.exists(path):
            os.remove(path)
        payload = {"path": path, "cleared": True}
    _emit(_json_text(payload), None)
    return 0


def _open_cache(path: str) -> CharCache:
    """Load the cache file, with one warning on stderr if it had malformed lines."""
    cache = CharCache(path)
    skipped = cache.file_stats["malformed_lines"]
    if skipped:
        print(f"plethy: skipped {skipped} malformed line{'s' * (skipped != 1)} in {path}", file=sys.stderr)
    return cache


_CACHE_COMMANDS = {"table": cmd_table, "boxplus": cmd_boxplus, "verify": cmd_verify}


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
        if args.command in _CACHE_COMMANDS:
            cache = _open_cache(config.cache_path)
            code = _CACHE_COMMANDS[args.command](args, config, cache)
            cache.flush()
            return code
        if args.command == "quotient":
            return cmd_quotient(args)
        if args.command == "cache":
            return cmd_cache(args, config)
        _emit(config.to_text(), None)
        return 0
    except (PartitionError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry_point() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry_point()
