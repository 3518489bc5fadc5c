"""Murnaghan-Nakayama character evaluation with a persistent memo cache.

The recursion always strips a ribbon whose length is the largest remaining
part of the cycle type.  Any fixed part order yields the same value;
largest-first shrinks the recursion tree fastest, and makes intermediate cycle
types suffixes of the one asked for, each with one memo table {bead mask: value}.
Every value is read through _row, mn_value's one-class rows included, and
computed on a miss by _miss, which recurses once per part of the class and
stores each state's conjugate shape too, as chi^lam'(mu) = sgn(mu) chi^lam(mu)
(the sign character tensored in).  The recursion states and their conjugates
stay in memory; the file keeps only the answers _row was asked for.  One
derived memo per cache, outside len and file, keeps the powers s_lam^d per
(lam, d) (symfunc._schur_power), the rows d = 1 included.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
import zlib
from collections import defaultdict
from typing import Iterable

from .abacus import _conjugate_mask, decode_mask, encode_mask, mask_ribbons as remove_ribbons  # benchmarks/tracing.py wraps this name
from .config import DEFAULT_TABLE_LIMIT
from .partitions import Partition, check_partition, format_partition, parse_partition, partitions_of

_CLEAR_HINT = "; run 'plethy cache clear' to delete the cache file"
_FILE_STATS = ("bytes", "lines", "duplicate_lines", "malformed_lines", "largest_n")
_CALLER_FRAMES = 500  # the stack depth a miss leaves the kernel's callers


class DegreeMismatchError(ValueError):
    """Character evaluated on a class of the wrong symmetric group."""


class CacheFormatError(ValueError):
    """Corrupt or self-contradictory cache file."""


class CharCache:
    """Memo of character values: one table {bead mask of shape: value} per cycle type.

    A pure memo: only the engine (_row, through _miss) and the loader fill it,
    and entries re-derived from scratch are always identical, so a stale,
    damaged or deleted file never changes results, only speed.

    With a path, the file is loaded wholesale on construction, and the cache
    records the answers _row is asked for: each (shape, class) of a row,
    the one-class rows of mn_value included.  Recursion states reached on
    the way, and the conjugate shape of each at the same class (its value
    times the class's sign), stay in the memo only.  The format is one entry
    per line, ``<nu parts>|<rho parts>=<decimal integer>``, e.g. ``4,4|2,2,2,2=6``.
    Loading skips malformed lines (garbage, a last line without its newline,
    |nu| != |rho|); it fails, naming the line, only when a line gives a pair a
    value other than the memo's.  file_stats holds the loaded file's bytes,
    lines, duplicate_lines, malformed_lines and largest_n (the largest size of
    a loaded entry), all 0 without a file.  flush() does nothing unless an
    answer is missing from the file as last loaded or flushed; then it loads
    the file on disk now the same way, unless its bytes match that file's (a
    64-bit checksum), and rewrites it as the sorted union of its lines (the
    recursion states of older files included) and the answers, through a
    temporary file and os.replace, so its bytes do not depend on the order of
    computation and a crash leaves the old file or the new one, never a torn
    line.  Of two concurrent flushes the last one wins; entries only the other
    one wrote are recomputed when next needed.  'plethy cache clear' deletes
    the file without reading it.  Inside, shapes are bead masks
    (abacus.encode_mask); values are read through mn_value and _row only.
    _powers (symfunc._schur_power's s_lam^d, the Schur functions themselves
    at d = 1) repeats derived values: len does not count them and the file
    never holds them.
    """

    def __init__(self, path: str | os.PathLike | None = None):
        self.path = os.fspath(path) if path is not None else None
        self._values: defaultdict[Partition, dict[int, int]] = defaultdict(dict)
        self._powers: dict[tuple[Partition, int], object] = {}  # symfunc._schur_power's SymFuncs
        self.file_stats = dict.fromkeys(_FILE_STATS, 0)
        # By cycle type, the bead masks of the file as last loaded or flushed and the answers
        # asked since that it lacks; and that file's _Summed.sum.  None without a path (or file).
        self._on_disk = self._unsaved = self._sum = None
        if self.path is not None:
            self._on_disk, self._unsaved = defaultdict(set), defaultdict(set)
            with contextlib.suppress(FileNotFoundError), _Summed(io.FileIO(self.path)) as handle:
                self.file_stats, self._on_disk = _read(handle, self._values)
                self._sum = handle.sum

    def flush(self) -> None:
        """If an answer asked since the last load or flush is missing from the
        file, merge in what is on disk now and atomically rewrite the file,
        one sorted line per answer or line already there."""
        if not self._unsaved:
            return
        on_disk: defaultdict[Partition, set[int]] = defaultdict(set)
        with contextlib.suppress(FileNotFoundError), _Summed(io.FileIO(self.path)) as handle:
            while handle.read1():
                pass
            # Unchanged lines gave the memo its values, so cannot conflict.
            on_disk = self._on_disk if handle.sum == self._sum else _read(handle, self._values)[1]
        for rho, masks in self._unsaved.items():
            on_disk[rho].update(masks)
        nu_texts: dict[int, str] = {}
        lines = []
        for rho, masks in on_disk.items():
            rho_text = format_partition(rho)
            table = self._values[rho]
            for mask in masks:
                nu_text = nu_texts.get(mask)
                if nu_text is None:
                    nu_text = nu_texts[mask] = format_partition(decode_mask(mask))
                lines.append(f"{nu_text}|{rho_text}={table[mask]}\n")
        data = "".join(sorted(lines)).encode("ascii")
        directory, name = os.path.split(self.path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        # Beside the target, as os.replace is atomic only within one file
        # system; mode "x" refuses an existing name and applies the umask.
        temp = os.path.join(directory, f".{name}.{os.urandom(6).hex()}.tmp")
        out = open(temp, "xb")
        try:
            with out:
                out.write(data)
            os.replace(temp, self.path)
        except BaseException:
            os.remove(temp)
            raise
        self._on_disk, self._unsaved, self._sum = on_disk, defaultdict(set), (zlib.crc32(data), zlib.adler32(data))

    def __len__(self) -> int:
        return sum(map(len, self._values.values()))


class _Summed(io.BufferedReader):
    """A file open for binary reads; sum is the CRC-32 and Adler-32 (64 bits) of what read1 returned."""

    sum = (0, 1)

    def read1(self, size: int = -1) -> bytes:
        data = super().read1(size)
        self.sum = zlib.crc32(data, self.sum[0]), zlib.adler32(data, self.sum[1])
        return data


class _Fields(dict):
    """Field text -> (bead mask, partition, size), parsed and checked once per text."""

    def __missing__(self, text: str) -> tuple[int, Partition, int]:
        mu = parse_partition(text)
        field = self[text] = (encode_mask(mu), mu, sum(mu))
        return field


def _read(handle: _Summed, values: defaultdict[Partition, dict[int, int]]) -> tuple[dict[str, int], defaultdict]:
    """Add the entries of the cache file open in handle, read from its start, to values,
    which must agree with them, and return the file's counters (see CharCache.file_stats)
    and the bead masks of its lines by cycle type, including pairs values already held."""
    fields, rows, masks, torn = _Fields(), {}, defaultdict(list), ""
    lineno = duplicates = malformed = largest = 0
    handle.seek(0)
    with io.TextIOWrapper(handle, encoding="ascii", errors="replace") as text:
        size = os.fstat(text.fileno()).st_size
        for block in iter(lambda: text.read(1 << 16), ""):  # by blocks, as each call checks handle.closed
            *pieces, torn = (torn + block).split("\n")
            for lineno, line in enumerate(pieces, lineno + 1):
                try:
                    key_text, value_text = line.split("=")
                    nu_text, rho_text = key_text.split("|")
                    nu, rho = fields[nu_text], fields[rho_text]
                    if nu[2] != rho[2]:
                        raise ValueError("degree mismatch")
                    value = int(value_text)
                except ValueError:
                    malformed += bool(line.strip())
                    continue
                # By the cycle type's text, whose hash Python keeps; the masks become sets once, at the end.
                row = rows.get(rho_text)
                if row is None:
                    row = rows[rho_text] = values[rho[1]], masks[rho[1]]
                table, read = row
                read.append(nu[0])
                known = table.get(nu[0])
                if known is None:
                    table[nu[0]] = value
                    if nu[2] > largest:
                        largest = nu[2]
                elif known == value:
                    duplicates += 1
                else:
                    raise CacheFormatError(
                        f"{handle.name}:{lineno}: conflicting values {known} and {value}"
                        f" for {line.rstrip()!r}{_CLEAR_HINT}"
                    )
    lineno, malformed = lineno + bool(torn), malformed + bool(torn.strip())
    stats = dict(zip(_FILE_STATS, (size, lineno, duplicates, malformed, largest)))
    return stats, defaultdict(set, {rho: set(read) for rho, read in masks.items()})


_default_cache = CharCache()


def mn_value(nu: Partition, rho: Partition, cache: CharCache | None = None) -> int:
    """The irreducible character of shape nu at the class of cycle type rho.

    Exact integer; both are checked, and |nu| must equal |rho|.  Read as
    the one-class row of nu through _row: memoized (with every intermediate
    pair the recursion touches) in the given cache or the process-wide
    default, and recorded as an answer to persist by a cache with a path.
    """
    nu = check_partition(nu)
    rho = check_partition(rho)
    if sum(nu) != sum(rho):
        raise DegreeMismatchError(
            f"degree mismatch: |{format_partition(nu) or '()'}| = {sum(nu)}"
            f" but |{format_partition(rho) or '()'}| = {sum(rho)}"
        )
    return _row(nu, (rho,), cache)[rho]


def _row(lam: Partition, classes: Iterable[Partition], cache: CharCache | None) -> dict[Partition, int]:
    """{mu: character of lam at mu} over the given classes, all of size |lam|, in
    their order; checks nothing.  The only reader of the memo: a miss goes to
    _miss, and a cache with a path records each pair the file lacks as an
    answer.  The empty shape never enters the memo, so is never an answer.
    A miss on a class too long for the recursion limit raises (never lowers) it."""
    if not lam:
        return dict.fromkeys(classes, 1)
    cache = cache if cache is not None else _default_cache
    mask, values = encode_mask(lam), cache._values
    row, room = {}, sys.getrecursionlimit() - _CALLER_FRAMES
    for mu in classes:
        table = values[mu]
        value = table.get(mask)
        if value is None:
            if len(mu) > room:
                room = len(mu)
                sys.setrecursionlimit(room + _CALLER_FRAMES)
            value = _miss(mask, mu, 0, [table], values, (sum(lam) - len(mu)) & 1)
        row[mu] = value
    unsaved = cache._unsaved
    if unsaved is not None:
        on_disk = cache._on_disk
        for mu in row:
            if mask not in on_disk.get(mu, ()):
                unsaved[mu].add(mask)
    return row


def _miss(mask: int, rho: Partition, depth: int, tables: list[dict[int, int]], values, odd: int) -> int:
    """Value of the mask at rho[depth:], missing from tables[depth] (the table
    of rho[depth:]); stores it there, and the conjugate shape's value, times
    sgn(rho[depth:]) = (-1)**odd, unless the table holds one already.  The
    first miss this deep fetches the next suffix's table, a private
    {empty shape: 1} for the empty suffix."""
    value = 0
    below = depth + 1
    if below == len(tables):
        tables.append(values[rho[below:]] if below < len(rho) else {0: 1})
    table, part = tables[below], rho[depth]
    for smaller, height in remove_ribbons(mask, part):
        term = table.get(smaller)
        if term is None:
            term = _miss(smaller, rho, below, tables, values, odd ^ (part - 1) & 1)
        value += -term if height & 1 else term
    here = tables[depth]
    here[mask] = value
    here.setdefault(_conjugate_mask(mask), -value if odd else value)
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
