"""Brute-force oracles, independent of the package under test.

Everything here is recomputed from first principles with its own partition
enumeration and centralizer bookkeeping, so agreement with the package is a
genuine cross-check rather than a tautology:

* tabloid_character_table: irreducible characters obtained by counting
  tabloids fixed by a permutation (permutation-module characters) and
  Gram-Schmidt reduction, no ribbon stripping anywhere;
* induced_character: the classical induced-character formula over splits
  of a cycle type;
* embedding_value: the ordered-tuple summation for the grid-subdivided
  character at subdivided classes, over the tabloid table;
* syt_count: standard Young tableaux counted one cell at a time;
* partition_ribbons, partition_mn: the ribbon-stripping kernel on partition
  tuples and sorted beta lists, as the package had it before its bead-mask
  kernel, kept to test that kernel differentially;
* count_partitions: partition counts by capped-part dynamic programming.
"""

from fractions import Fraction
from math import factorial


def count_partitions(n: int) -> int:
    """Number of partitions of n, by the ways(n, max part) recurrence."""
    table = [[0] * (n + 1) for _ in range(n + 1)]
    for cap in range(n + 1):
        table[cap][0] = 1
    for cap in range(1, n + 1):
        for total in range(1, n + 1):
            table[cap][total] = table[cap - 1][total]
            if total >= cap:
                table[cap][total] += table[cap][total - cap]
    return table[n][n]


def partitions_desc(n: int) -> list[tuple[int, ...]]:
    """Partitions of n in descending lexicographic order."""
    out = []

    def grow(prefix: tuple[int, ...], remaining: int, cap: int):
        if remaining == 0:
            out.append(prefix)
            return
        for part in range(min(cap, remaining), 0, -1):
            grow(prefix + (part,), remaining - part, part)

    grow((), n, n)
    return out


def z_order(mu: tuple[int, ...]) -> int:
    z = 1
    for part in set(mu):
        m = mu.count(part)
        z *= part**m * factorial(m)
    return z


def tabloid_count(lam: tuple[int, ...], mu: tuple[int, ...]) -> int:
    """Tabloids of shape lam fixed by a permutation of cycle type mu.

    Each cycle must land inside a single row; cycles are distinguishable
    even when equal in length, so this is a plain assignment count.
    """
    cycles = list(mu)
    rows = list(lam)

    def assign(index: int, caps: tuple[int, ...]) -> int:
        if index == len(cycles):
            return 1
        size = cycles[index]
        total = 0
        for i, cap in enumerate(caps):
            if cap >= size:
                total += assign(index + 1, caps[:i] + (cap - size,) + caps[i + 1 :])
        return total

    return assign(0, tuple(rows))


def tabloid_character_table(n: int) -> dict[tuple[int, ...], dict[tuple[int, ...], int]]:
    """Irreducible character values {lam: {mu: value}} via Gram-Schmidt.

    Permutation-module characters are triangular against the irreducibles
    along dominance order; descending lexicographic order is a linear
    extension of it, so subtracting previously extracted characters in that
    order isolates each irreducible.
    """
    mus = partitions_desc(n)
    chars: dict[tuple[int, ...], dict[tuple[int, ...], int]] = {}
    for lam in mus:
        row = {mu: Fraction(tabloid_count(lam, mu)) for mu in mus}
        for prev, prev_row in chars.items():
            coeff = sum(row[mu] * prev_row[mu] / z_order(mu) for mu in mus)
            if coeff:
                for mu in mus:
                    row[mu] -= coeff * prev_row[mu]
        norm = sum(row[mu] * row[mu] / z_order(mu) for mu in mus)
        assert norm == 1, f"Gram-Schmidt failed at {lam}: squared norm {norm}"
        chars[lam] = {mu: int(row[mu]) for mu in mus}
    return chars


def splits(parts: tuple[int, ...], total: int):
    """Distinct submultisets of parts summing to total, with the remainder."""
    distinct = sorted(set(parts), reverse=True)
    counts = {p: parts.count(p) for p in distinct}
    results = []

    def descend(index: int, remaining: int, chosen: list[int]):
        if remaining == 0:
            taken = {p: chosen.count(p) for p in set(chosen)}
            rest = []
            for p in distinct:
                rest.extend([p] * (counts[p] - taken.get(p, 0)))
            results.append((tuple(chosen), tuple(rest)))
            return
        if index == len(distinct):
            return
        part = distinct[index]
        for take in range(min(counts[part], remaining // part), -1, -1):
            descend(index + 1, remaining - take * part, chosen + [part] * take)

    descend(0, total, [])
    return results


def induced_character(
    values_a: dict[tuple[int, ...], int],
    size_a: int,
    values_b: dict[tuple[int, ...], int],
    size_b: int,
) -> dict[tuple[int, ...], Fraction]:
    """Induce the outer product of two class functions up to size_a + size_b."""
    result = {}
    for rho in partitions_desc(size_a + size_b):
        total = Fraction(0)
        for rho_a, rho_b in splits(rho, size_a):
            rho_b = tuple(sorted(rho_b, reverse=True))
            total += (
                Fraction(z_order(rho), z_order(rho_a) * z_order(rho_b))
                * values_a[rho_a]
                * values_b[rho_b]
            )
        result[rho] = total
    return result


def embedding_value(lam: tuple[int, ...], mu: tuple[int, ...], d: int) -> Fraction:
    """Grid-subdivided character value at the subdivided class of mu, via the
    ordered-tuple summation over the tabloid character table of the small
    symmetric group."""
    n = sum(lam)
    table = tabloid_character_table(n)
    pooled = tuple(sorted(mu * d, reverse=True))
    total = Fraction(0)

    def tuples(remaining: tuple[int, ...], slots: int, chosen: list[tuple[int, ...]]):
        nonlocal total
        if slots == 0:
            if not remaining:
                ratio = Fraction(z_order(pooled))
                value = 1
                for piece in chosen:
                    ratio /= z_order(piece)
                    value *= table[lam][piece]
                total += ratio * value
            return
        for piece, rest in splits(remaining, n):
            tuples(rest, slots - 1, chosen + [piece])

    tuples(pooled, d, [])
    return total


def syt_count(lam: tuple[int, ...]) -> int:
    """Standard Young tableaux of shape lam, filled cell by cell."""
    if not lam:
        return 1

    def place(rows: tuple[int, ...]) -> int:
        if sum(rows) == sum(lam):
            return 1
        total = 0
        for i in range(len(lam)):
            if rows[i] < lam[i] and (i == 0 or rows[i - 1] > rows[i]):
                total += place(rows[:i] + (rows[i] + 1,) + rows[i + 1 :])
        return total

    return place((0,) * len(lam))


def _decode_betas(betas_desc: list[int]) -> tuple[int, ...]:
    t = len(betas_desc)
    return tuple(b - (t - 1 - i) for i, b in enumerate(betas_desc) if b - (t - 1 - i) > 0)


def partition_ribbons(lam: tuple[int, ...], length: int) -> list[tuple[tuple[int, ...], int, int]]:
    """(smaller, height, sign) of every ribbon of the given length, ascending
    by the moved bead, on t = len(lam) beta numbers."""
    t = len(lam)
    betas = [lam[i] + t - 1 - i for i in range(t)]
    occupied = set(betas)
    removals = []
    for b in sorted(occupied):
        target = b - length
        if target < 0 or target in occupied:
            continue
        height = sum(1 for c in betas if target < c < b)
        moved = sorted((occupied - {b}) | {target}, reverse=True)
        removals.append((_decode_betas(moved), height, -1 if height % 2 else 1))
    return removals


def partition_mn(nu: tuple[int, ...], rho: tuple[int, ...], memo: dict | None = None) -> int:
    """Murnaghan-Nakayama rule, stripping a ribbon of length rho[0] first."""
    if not nu:
        return 1
    memo = {} if memo is None else memo
    key = (nu, rho)
    if key not in memo:
        removals = partition_ribbons(nu, rho[0])
        memo[key] = sum(sign * partition_mn(smaller, rho[1:], memo) for smaller, _, sign in removals)
    return memo[key]
