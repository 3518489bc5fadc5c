"""Integer partition arithmetic.

A partition is a plain tuple of weakly decreasing positive ints; the empty
tuple is the unique partition of 0.  Tuples are hashable, so partitions serve
directly as dict keys in sparse expansions and in the character cache.

Partitions double as cycle types: the partition (2,1) is both an index for an
irreducible character of S_3 and the conjugacy class of a transposition.
"""

from __future__ import annotations

import functools
from collections import Counter
from math import factorial
from typing import Iterable, Sequence

from .config import _check_positive

Partition = tuple[int, ...]

EMPTY: Partition = ()


class PartitionError(ValueError):
    """Malformed partition data or partition string."""


def check_partition(parts: Iterable[int]) -> Partition:
    """Validate and canonicalize an iterable of parts into a partition tuple.

    Raises PartitionError unless the parts are positive integers in weakly
    decreasing order.  A tuple object that partitions_of built (kept by id
    in _ENUMERATED) comes back at once; an equal one gets the full check.
    """
    if type(parts) is tuple and _ENUMERATED.get(id(parts)) is parts:
        return parts
    mu = tuple(parts)
    for i, part in enumerate(mu):
        if not isinstance(part, int) or isinstance(part, bool) or part < 1:
            raise PartitionError(f"invalid partition {mu!r}: part {part!r} is not a positive integer")
        if i > 0 and mu[i - 1] < part:
            raise PartitionError(f"invalid partition {mu!r}: parts not weakly decreasing at {part!r}")
    return mu


def parse_partition(text: str) -> Partition:
    """Parse the comma-separated text form, e.g. "4,4,2,2"; "" is the empty partition."""
    text = text.strip()
    if not text:
        return EMPTY
    parts = []
    for token in text.split(","):
        token = token.strip()
        try:
            part = int(token)
        except ValueError:
            raise PartitionError(f"invalid partition {text!r}: token {token!r} is not an integer") from None
        parts.append(part)
    return check_partition(parts)


def format_partition(mu: Partition) -> str:
    """Inverse of parse_partition: "4,4,2,2" for (4,4,2,2), "" for ()."""
    return ",".join(str(part) for part in mu)


def sort_key(mu: Partition):
    """Canonical global ordering: by size, then descending lexicographic.

    Within one size this matches the enumeration order of partitions_of, so
    serialized maps keyed by partitions always come out in the same order.
    """
    return (sum(mu), tuple(-part for part in mu))


_ENUMERATED: dict[int, Partition] = {}


@functools.lru_cache(maxsize=None)
def _partitions_of(n: int) -> tuple[Partition, ...]:
    if n < 0:
        raise PartitionError(f"cannot enumerate partitions of negative {n}")
    result: list[Partition] = []
    prefix: list[int] = []

    def descend(remaining: int, largest: int) -> None:
        if remaining == 0:
            result.append(tuple(prefix))
            return
        for part in range(min(largest, remaining), 0, -1):
            prefix.append(part)
            descend(remaining - part, part)
            prefix.pop()

    descend(n, n)
    _ENUMERATED.update((id(mu), mu) for mu in result)
    return tuple(result)


def partitions_of(n: int) -> list[Partition]:
    """All partitions of n, each exactly once, in descending lexicographic order.

    partitions_of(0) == [()].  The order is fixed forever; output files and
    JSON key order depend on it.
    """
    if type(n) is not int:
        raise ValueError(f"n must be an integer, got {n!r}")
    return list(_partitions_of(n))


# Bounded memo: the symmetric-function layer asks for the same few cycle types.
@functools.lru_cache(maxsize=4096)
def centralizer_order(mu: Partition) -> int:
    """Order of the centralizer of a permutation of cycle type mu.

    The product of i^(m_i) * m_i! over part values i, where m_i is the
    multiplicity of i in mu.  For mu a partition of n, n! divided by this is
    the size of the conjugacy class.
    """
    order = 1
    for i, m in Counter(mu).items():
        order *= i**m * factorial(m)
    return order


def boxplus(lam: Partition, d: int) -> Partition:
    """Subdivide every box of lam's Young diagram into a d-by-d grid.

    Each part x of lam becomes d copies of d*x, so the result is a partition
    of d*d*|lam| in which part i*d has multiplicity d*m_i(lam).
    """
    _check_positive("grid factor", d)
    return _boxplus(lam, d)


def scale(lam: Partition, d: int) -> Partition:
    """Multiply every part of lam by d."""
    _check_positive("scale factor", d)
    return _scale(lam, d)


# Unchecked cores of boxplus, scale and union_power, for engine code that checked d at its entry.
def _boxplus(lam: Partition, d: int) -> Partition:
    return tuple(d * part for part in lam for _ in range(d))


def _scale(lam: Partition, d: int) -> Partition:
    return tuple(d * part for part in lam)


def _union_power(mu: Partition, d: int) -> Partition:
    return tuple(sorted(mu * d, reverse=True))


def union(mu: Partition, nu: Partition) -> Partition:
    """Multiset union of parts, re-sorted weakly decreasing; sizes add."""
    return tuple(sorted(mu + nu, reverse=True))


def union_power(mu: Partition, d: int) -> Partition:
    """Multiset union of d copies of mu (the cycle type of a diagonal element)."""
    _check_positive("union power", d)
    return _union_power(mu, d)


def multiplicity_pattern(tup: Sequence[Partition]) -> Partition:
    """Entry multiplicities of a nonempty tuple of partitions, weakly decreasing.

    ((2,1),(3),(1,1,1),(3),(2,1)) has two entries appearing twice and one
    appearing once, so the pattern is (2,2,1), a partition of len(tup).
    Invariant under reordering the input.
    """
    if not tup:
        raise PartitionError("multiplicity pattern of an empty tuple")
    return tuple(sorted(Counter(tup).values(), reverse=True))


def conjugate(lam: Partition) -> Partition:
    """Column lengths of the Young diagram; an involution."""
    if not lam:
        return EMPTY
    cols = [0] * lam[0]
    for part in lam:
        for j in range(part):
            cols[j] += 1
    return tuple(cols)
