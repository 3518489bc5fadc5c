"""Murnaghan-Nakayama character evaluation with a persistent memo cache.

The recursion always strips a ribbon whose length is the largest remaining
part of the cycle type.  Any fixed part order yields the same value;
largest-first shrinks the recursion tree fastest, and makes intermediate cycle
types suffixes of the one asked for, each with one memo table {bead mask: value}.
"""

from __future__ import annotations

import contextlib
import os
from collections import defaultdict
from typing import Iterable

from .abacus import decode_mask, encode_mask, mask_ribbons as remove_ribbons  # benchmarks/tracing.py wraps this name
from .partitions import Partition, check_partition, format_partition, parse_partition, partitions_of

DEFAULT_TABLE_LIMIT = 18
_CLEAR_HINT = "; run 'plethy cache clear' to delete the cache file"
_FILE_STATS = ("bytes", "lines", "duplicate_lines", "malformed_lines", "largest_n")


class DegreeMismatchError(ValueError):
    """Character evaluated on a class of the wrong symmetric group."""


class CacheFormatError(ValueError):
    """Corrupt or self-contradictory cache file."""


class CharCache:
    """Memo of character values: one table {bead mask of shape: value} per cycle type.

    A pure memo: entries re-derived from scratch are always identical, so a
    stale, damaged or deleted file never changes results, only speed.

    With a path, the file is loaded wholesale on construction.  The format
    is one entry per line, ``<nu parts>|<rho parts>=<decimal integer>``,
    e.g. ``4,4|2,2,2,2=6``.  Loading skips malformed lines (garbage, a last
    line without its newline, |nu| != |rho|); it fails only when two lines
    give one pair different values.  file_stats holds the loaded file's
    bytes, lines, duplicate_lines, malformed_lines and largest_n (the
    largest size of a loaded entry), all 0 without a file.  flush()
    rewrites the file as the sorted union of memory and disk through a
    temporary file and os.replace, so its bytes do not depend on the order
    of computation and a crash leaves the old file or the new one, never a
    torn line.  Of two concurrent flushes the last one wins; entries only
    the other one wrote are recomputed when next needed.  Inside, shapes
    are bead masks (abacus.encode_mask); get/put take partitions and check
    them like mn_value.
    """

    def __init__(self, path: str | os.PathLike | None = None):
        self.path = os.fspath(path) if path is not None else None
        self._values: defaultdict[Partition, dict[int, int]] = defaultdict(dict)
        self.file_stats = dict.fromkeys(_FILE_STATS, 0)
        if self.path is not None:
            with contextlib.suppress(FileNotFoundError):
                self.file_stats = _read(self.path, self._values)
        # len(self) at the last load or flush: more means entries to write.
        self._saved = len(self)

    def get(self, nu: Partition, rho: Partition) -> int | None:
        mask, rho = _key(nu, rho)
        return self._values.get(rho, {}).get(mask)

    def put(self, nu: Partition, rho: Partition, value: int) -> None:
        mask, rho = _key(nu, rho)
        self._values[rho].setdefault(mask, value)

    def flush(self) -> None:
        """If entries were added since the last load or flush, merge in what
        is on disk now and atomically rewrite the file, one sorted line per entry."""
        if self.path is None or len(self) == self._saved:
            return
        with contextlib.suppress(FileNotFoundError):
            _read(self.path, self._values)
        nu_texts: dict[int, str] = {}
        lines = []
        for rho, table in self._values.items():
            rho_text = format_partition(rho)
            for mask, value in table.items():
                nu_text = nu_texts.get(mask)
                if nu_text is None:
                    nu_text = nu_texts[mask] = format_partition(decode_mask(mask))
                lines.append(f"{nu_text}|{rho_text}={value}\n")
        lines.sort()
        directory, name = os.path.split(self.path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        # Beside the target, as os.replace is atomic only within one file
        # system; mode "x" refuses an existing name and applies the umask.
        temp = os.path.join(directory, f".{name}.{os.urandom(6).hex()}.tmp")
        out = open(temp, "x", encoding="ascii")
        try:
            with out:
                out.writelines(lines)
            os.replace(temp, self.path)
        except BaseException:
            os.remove(temp)
            raise
        self._saved = len(self)

    def clear(self) -> None:
        self._values.clear()
        self._saved = 0
        if self.path is not None and os.path.exists(self.path):
            os.remove(self.path)

    def __len__(self) -> int:
        return sum(map(len, self._values.values()))


class _Fields(dict):
    """Field text -> (bead mask, partition, size), parsed and checked once per text."""

    def __missing__(self, text: str) -> tuple[int, Partition, int]:
        mu = parse_partition(text)
        field = self[text] = (encode_mask(mu), mu, sum(mu))
        return field


def _read(path: str, values: defaultdict[Partition, dict[int, int]]) -> dict[str, int]:
    """Add the entries of the cache file at path to values and return the
    file's counters (see CharCache.file_stats)."""
    fields = _Fields()
    lineno = duplicates = malformed = largest = 0
    with open(path, encoding="ascii", errors="replace") as handle:
        size = os.fstat(handle.fileno()).st_size
        for lineno, line in enumerate(handle, start=1):
            try:
                if line[-1] != "\n":
                    raise ValueError("torn last line")
                key_text, value_text = line.split("=")
                nu_text, rho_text = key_text.split("|")
                nu, rho = fields[nu_text], fields[rho_text]
                if nu[2] != rho[2]:
                    raise ValueError("degree mismatch")
                value = int(value_text)
            except ValueError:
                malformed += not line.isspace()
                continue
            table = values[rho[1]]
            known = table.get(nu[0])
            if known is None:
                table[nu[0]] = value
                if nu[2] > largest:
                    largest = nu[2]
            elif known == value:
                duplicates += 1
            else:
                raise CacheFormatError(
                    f"{path}:{lineno}: conflicting values {known} and {value} for {line.rstrip()!r}{_CLEAR_HINT}"
                )
    return dict(zip(_FILE_STATS, (size, lineno, duplicates, malformed, largest)))


_default_cache = CharCache()


def _key(nu: Partition, rho: Partition) -> tuple[int, Partition]:
    """The memo key (bead mask of nu, rho) of a checked pair with |nu| = |rho|."""
    nu = check_partition(nu)
    rho = check_partition(rho)
    if sum(nu) != sum(rho):
        raise DegreeMismatchError(
            f"degree mismatch: |{format_partition(nu) or '()'}| = {sum(nu)}"
            f" but |{format_partition(rho) or '()'}| = {sum(rho)}"
        )
    return encode_mask(nu), rho


def mn_value(nu: Partition, rho: Partition, cache: CharCache | None = None) -> int:
    """The irreducible character of shape nu at the class of cycle type rho.

    Exact integer; |nu| must equal |rho|.  Values are memoized (including
    every intermediate pair the recursion touches) through the given cache,
    or the process-wide default.
    """
    return _mn(*_key(nu, rho), (cache if cache is not None else _default_cache)._values)


def character_row(lam: Partition, cache: CharCache | None = None) -> dict[Partition, int]:
    """{mu: character of shape lam at mu} over partitions_of(|lam|), in that order; checks lam."""
    lam = check_partition(lam)
    return _row(lam, partitions_of(sum(lam)), cache)


def _row(lam: Partition, classes: Iterable[Partition], cache: CharCache | None) -> dict[Partition, int]:
    """character_row over the given classes, all of size |lam|, in their order; checks nothing."""
    mask, values = encode_mask(lam), (cache if cache is not None else _default_cache)._values
    return {mu: _mn(mask, mu, values) for mu in classes}


def _mn(mask: int, rho: Partition, values: defaultdict[Partition, dict[int, int]]) -> int:
    if not mask:
        return 1
    table = values[rho]
    known = table.get(mask)
    if known is not None:
        return known
    return _miss(mask, rho, 0, [table], values)


def _miss(mask: int, rho: Partition, depth: int, tables: list[dict[int, int]], values) -> int:
    """Value of the mask at rho[depth:], missing from tables[depth] (the table
    of rho[depth:]); stores it there.  The first miss this deep fetches the
    next suffix's table, a private {empty shape: 1} for the empty suffix."""
    value = 0
    below = depth + 1
    if below == len(tables):
        tables.append(values[rho[below:]] if below < len(rho) else {0: 1})
    table = tables[below]
    for smaller, height in remove_ribbons(mask, rho[depth]):
        term = table.get(smaller)
        if term is None:
            term = _miss(smaller, rho, below, tables, values)
        value += -term if height & 1 else term
    tables[depth][mask] = value
    return value


def character_table(n: int, max_n: int = DEFAULT_TABLE_LIMIT, cache: CharCache | None = None) -> list[list[int]]:
    """Character table of the symmetric group on n letters.

    Rows are indexed by shapes and columns by cycle types, both in the
    canonical enumeration order of partitions_of(n).  Guarded by max_n
    (default 18) because the table has p(n)^2 entries; single values via
    mn_value stay available beyond the limit.
    """
    if n < 0:
        raise ValueError(f"table size must be nonnegative, got {n}")
    if n > max_n:
        raise ValueError(f"table too large: n = {n} exceeds the limit {max_n}")
    return [list(_row(lam, partitions_of(n), cache).values()) for lam in partitions_of(n)]
