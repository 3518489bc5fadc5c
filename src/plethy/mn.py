"""Murnaghan-Nakayama character evaluation with a persistent memo cache.

The recursion always strips a ribbon whose length is the largest remaining
part of the cycle type.  Any fixed part order yields the same value;
largest-first shrinks the recursion tree fastest and keeps the cache keys of
intermediate calls deterministic.
"""

from __future__ import annotations

import itertools
import os

from .abacus import decode_mask, encode_mask, mask_ribbons as remove_ribbons  # benchmarks/tracing.py wraps this name
from .partitions import Partition, check_partition, format_partition, parse_partition, partitions_of

DEFAULT_TABLE_LIMIT = 18
_CLEAR_HINT = "; run 'plethy cache clear' to delete the cache file"


class DegreeMismatchError(ValueError):
    """Character evaluated on a class of the wrong symmetric group."""


class CacheFormatError(ValueError):
    """Corrupt or self-contradictory cache file."""


class CharCache:
    """Memo of character values keyed by (shape, cycle type).

    A pure memo: entries re-derived from scratch are always identical, so a
    stale or deleted file never changes results, only speed.  Not locked:
    threads that share one cache still get consistent values, but its file
    may gain an entry twice or miss one.

    With a path, the file is loaded wholesale on construction and new
    entries are appended in a single write per flush().  The format is one
    entry per line, ``<nu parts>|<rho parts>=<decimal integer>``, e.g.
    ``4,4|2,2,2,2=6``.  Duplicate lines must agree or loading fails.  Inside,
    shapes are bead masks (abacus.encode_mask); get/put take partitions.
    """

    def __init__(self, path: str | os.PathLike | None = None):
        self.path = os.fspath(path) if path is not None else None
        # Insertion-ordered: entries past the first _saved are not on disk yet.
        self._values: dict[tuple[int, Partition], int] = {}
        self._saved = 0
        if self.path is not None and os.path.exists(self.path):
            self._load()

    def _load(self) -> None:
        with open(self.path, encoding="ascii") as handle:
            for lineno, line in enumerate(handle, start=1):
                line = line.rstrip("\n")
                if not line:
                    continue
                try:
                    key_part, value_part = line.split("=")
                    nu_text, rho_text = key_part.split("|")
                    key = (encode_mask(parse_partition(nu_text)), parse_partition(rho_text))
                    value = int(value_part)
                except ValueError as exc:
                    raise CacheFormatError(f"{self.path}:{lineno}: bad cache line {line!r}{_CLEAR_HINT}") from exc
                if key in self._values and self._values[key] != value:
                    raise CacheFormatError(
                        f"{self.path}:{lineno}: conflicting values {self._values[key]} and {value}"
                        f" for {line!r}{_CLEAR_HINT}"
                    )
                self._values[key] = value
        self._saved = len(self._values)

    def get(self, nu: Partition, rho: Partition) -> int | None:
        return self._values.get((encode_mask(nu), rho))

    def put(self, nu: Partition, rho: Partition, value: int) -> None:
        self._values.setdefault((encode_mask(nu), rho), value)

    def flush(self) -> None:
        """Append entries recorded since the last flush in one atomic write."""
        start, self._saved = self._saved, len(self._values)
        if self.path is None or start == self._saved:
            return
        lines = "".join(
            f"{format_partition(decode_mask(mask))}|{format_partition(rho)}={value}\n"
            for (mask, rho), value in itertools.islice(self._values.items(), start, None)
        )
        directory = os.path.dirname(self.path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        with open(self.path, "a", encoding="ascii") as handle:
            handle.write(lines)

    def clear(self) -> None:
        self._values.clear()
        self._saved = 0
        if self.path is not None and os.path.exists(self.path):
            os.remove(self.path)

    def __len__(self) -> int:
        return len(self._values)


_default_cache = CharCache()


def default_cache() -> CharCache:
    """The process-wide in-memory cache used when no cache is passed."""
    return _default_cache


def mn_value(nu: Partition, rho: Partition, cache: CharCache | None = None) -> int:
    """The irreducible character of shape nu at the class of cycle type rho.

    Exact integer; |nu| must equal |rho|.  Values are memoized (including
    every intermediate pair the recursion touches) through the given cache,
    or the process-wide default.
    """
    nu = check_partition(nu)
    rho = check_partition(rho)
    if sum(nu) != sum(rho):
        raise DegreeMismatchError(
            f"degree mismatch: |{format_partition(nu) or '()'}| = {sum(nu)}"
            f" but |{format_partition(rho) or '()'}| = {sum(rho)}"
        )
    return _mn(encode_mask(nu), rho, (cache if cache is not None else _default_cache)._values)


def _mn(mask: int, rho: Partition, values: dict[tuple[int, Partition], int]) -> int:
    if not mask:
        return 1
    known = values.get((mask, rho))
    if known is not None:
        return known
    rest = rho[1:]
    value = 0
    for smaller, height in remove_ribbons(mask, rho[0]):
        term = _mn(smaller, rest, values)
        value += -term if height & 1 else term
    values[mask, rho] = value
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
    mus = partitions_of(n)
    return [[mn_value(lam, mu, cache) for mu in mus] for lam in mus]
