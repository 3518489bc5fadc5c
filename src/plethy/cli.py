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
import csv
import io
import json
import os
import sys

from . import verify as verify_mod
from .characters import (
    ROUTE_DIRECT,
    ROUTE_PLETHYSTIC,
    boxplus_classfunction,
    decompose,
)
from .config import Config, load_config
from .mn import CharCache, character_table
from .partitions import (
    PartitionError,
    format_partition,
    parse_partition,
    partitions_of,
)
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


def cmd_table(args: argparse.Namespace, config: Config, cache: CharCache) -> int:
    rows = character_table(args.n, config.max_table_n, cache)
    parts = partitions_of(args.n)
    fmt = args.format or config.output_format
    if fmt == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(["lambda"] + [format_partition(mu) for mu in parts])
        for lam, row in zip(parts, rows):
            writer.writerow([format_partition(lam)] + [str(value) for value in row])
        _emit(buffer.getvalue(), args.out)
    else:
        payload = {
            "n": args.n,
            "rows": {
                format_partition(lam): {
                    format_partition(mu): str(value) for mu, value in zip(parts, row)
                }
                for lam, row in zip(parts, rows)
            },
        }
        _emit(_json_text(payload), args.out)
    return 0


def cmd_boxplus(args: argparse.Namespace, config: Config, cache: CharCache) -> int:
    lam = parse_partition(args.lam)
    # The limits verify thm1 applies to the same class functions.
    verify_mod.check_limit("--d", args.d, config.thm1_d)
    if sum(lam) > config.thm1_n:
        raise ValueError(f"|lambda| = {sum(lam)} exceeds the limit {config.thm1_n}")
    names = (ROUTE_DIRECT, ROUTE_PLETHYSTIC) if args.route == ROUTE_BOTH else (args.route,)
    routes = {name: boxplus_classfunction(lam, args.d, name, cache) for name in names}
    primary = routes.get(ROUTE_DIRECT) or routes[ROUTE_PLETHYSTIC]
    mults = decompose(primary, cache)
    decomposition = {format_partition(nu): format_rational(m) for nu, m in mults.items()}
    fmt = args.format or config.output_format
    if fmt == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(["kind", "key", "value"])
        for route, phi in routes.items():
            kind = "value" if args.route != ROUTE_BOTH else route
            for mu in partitions_of(phi.n):
                writer.writerow([kind, format_partition(mu), format_rational(phi.values[mu])])
        for key, value in decomposition.items():
            writer.writerow(["multiplicity", key, value])
        if args.route == ROUTE_BOTH:
            agree = routes[ROUTE_DIRECT].values == routes[ROUTE_PLETHYSTIC].values
            writer.writerow(["agreement", "", "true" if agree else "false"])
        _emit(buffer.getvalue(), args.out)
    else:
        payload = {"lambda": format_partition(lam), "d": args.d, "route": args.route}
        if args.route == ROUTE_BOTH:
            payload["direct"] = routes[ROUTE_DIRECT].to_json_dict()
            payload["plethystic"] = routes[ROUTE_PLETHYSTIC].to_json_dict()
            payload["agreement"] = routes[ROUTE_DIRECT].values == routes[ROUTE_PLETHYSTIC].values
        else:
            payload["classfunction"] = primary.to_json_dict()
        payload["decomposition"] = decomposition
        _emit(_json_text(payload), args.out)
    return 0


def cmd_quotient(args: argparse.Namespace, config: Config) -> int:
    from .abacus import d_core, d_quotient, d_sign

    nu = parse_partition(args.nu)
    # No d-ribbon fits in nu when d > |nu|.
    verify_mod.check_limit("--d", args.d, max(sum(nu), 1))
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
    limits = (config.thm1_n, config.thm1_d, config.littlewood_size, config.thm2_n, config.thm2_d)
    sweep = verify_mod.sweep_table(*limits).get(args.which)
    taken = ("d", sweep.size_name) if sweep else ()
    for flag in ("n", "d", "max_size"):
        if getattr(args, flag) is not None and flag not in taken:
            raise ValueError(f"verify {args.which} does not take --{flag.replace('_', '-')}")
    if sweep is None:
        reports = verify_mod.run_verify_all(*limits, cache)
    else:
        size = getattr(args, sweep.size_name)
        size = sweep.sizes[-1] if size is None else size
        d = sweep.default_d if args.d is None else args.d
        reports = [getattr(verify_mod, sweep.function)(size, d, *sweep.limits, cache)]
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
        payload = {"path": path, "exists": os.path.exists(path), "entries": len(CharCache(path))}
    else:
        # Deleted unread, so a corrupt file cannot block its own removal.
        if os.path.exists(path):
            os.remove(path)
        payload = {"path": path, "cleared": True}
    _emit(_json_text(payload), None)
    return 0


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
            cache = CharCache(config.cache_path)
            code = _CACHE_COMMANDS[args.command](args, config, cache)
            cache.flush()
            return code
        if args.command == "quotient":
            return cmd_quotient(args, config)
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
