"""Beta-set (abacus) combinatorics: ribbon removal, cores, quotients, signs.

A partition with at most t parts is encoded as the strictly decreasing
sequence of beta numbers lam[i] + t - 1 - i (rows padded with zero parts up
to length t).  Removing a ribbon (border strip) of length k is moving one
bead from position b down to the empty position b - k; the ribbon's height
is the number of beads strictly between the two positions.

Conventions fixed here, since the literature varies:

* d-quotient: take t = d * ceil(len(nu) / d) beads; runner r holds the beads
  congruent to r mod d, read as beta numbers b // d; the quotient tuple is
  ordered by residue r = 0, ..., d-1.  Downstream consumers only multiply
  the quotient components together, so the ordering is internal, but it is
  fixed for reproducible output.
* d-sign: sign of the permutation that moves every bead down its runner into
  the packed (core) configuration.  This equals the product of ribbon signs
  over any full stripping sequence, which is how the tests validate it.
  Undefined (None) when the d-core is nonempty, i.e. when no full stripping
  to the empty partition exists.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .partitions import Partition, PartitionError, check_partition


@dataclass(frozen=True)
class BetaSet:
    """Strictly decreasing nonnegative beta numbers encoding a partition."""

    betas: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.betas)

    def to_partition(self) -> Partition:
        """Decode: subtract the staircase t-1-i and drop zero parts."""
        return decode_mask(sum(1 << b for b in self.betas))


def beta_set(lam: Partition, t: int) -> BetaSet:
    """Beta numbers of lam using t beads; t must cover every part of lam."""
    lam = check_partition(lam)
    if t < len(lam):
        raise PartitionError(f"beta-set too short: {t} beads for {len(lam)} parts")
    padded = lam + (0,) * (t - len(lam))
    return BetaSet(tuple(padded[i] + t - 1 - i for i in range(t)))


# Bounded memo: callers encode the same few shapes again and again.
@functools.lru_cache(maxsize=4096)
def encode_mask(lam: Partition) -> int:
    """The bead mask of lam with one bead per row: bit 0 is empty, so each
    partition has exactly one mask (its canonical mask); () has 0."""
    t = len(lam)
    return sum(1 << (part + t - 1 - i) for i, part in enumerate(lam))


def decode_mask(mask: int) -> Partition:
    """The partition of any bead mask; beads packed at the bottom are zero rows."""
    parts: list[int] = []
    while mask:
        low = mask & -mask
        parts.append(low.bit_length() - 1 - len(parts))
        mask ^= low
    return tuple(part for part in reversed(parts) if part)


@dataclass(frozen=True)
class RibbonRemoval:
    """One way to strip a border strip: the smaller shape, its height, its sign."""

    smaller: Partition
    height: int
    sign: int


def mask_ribbons(mask: int, length: int) -> list[tuple[int, int]]:
    """(smaller mask, height) of every ribbon of the given length on a canonical mask.

    A removal moves the bead at b to the empty position b - length; its
    height is the number of beads in between.  Ordered by b, ascending.
    A bead moved to position 0 packs the beads below the shape, which are
    stripped to keep the smaller mask canonical.
    """
    moves = []
    targets = (mask & ~(mask << length)) >> length
    while targets:
        low = targets & -targets
        bead = low << length
        smaller = mask ^ bead ^ low
        if low == 1:
            smaller >>= (smaller ^ (smaller + 1)).bit_length() - 1
        moves.append((smaller, (mask & (bead - low)).bit_count()))
        targets ^= low
    return moves


def remove_ribbons(lam: Partition, length: int) -> list[RibbonRemoval]:
    """All single removals of a ribbon of the given length from lam.

    Returns the empty list when no such ribbon exists.  Order is by the
    abacus position of the moved bead, ascending; for the diagram this means
    ribbons closer to the bottom row come first.
    """
    lam = check_partition(lam)
    if length < 1:
        raise PartitionError(f"ribbon length must be positive, got {length}")
    moves = mask_ribbons(encode_mask(lam), length)
    return [RibbonRemoval(decode_mask(smaller), height, -1 if height % 2 else 1) for smaller, height in moves]


def _runners(nu: Partition, d: int) -> tuple[tuple[int, ...], list[list[int]]]:
    """The beta numbers of nu on d * ceil(len/d) beads, decreasing, and per
    residue r the b // d values of the beads congruent to r (runner r)."""
    if d < 1:
        raise PartitionError(f"ribbon length must be positive, got {d}")
    nu = check_partition(nu)
    betas = beta_set(nu, -(-len(nu) // d) * d).betas
    runners: list[list[int]] = [[] for _ in range(d)]
    for b in betas:
        runners[b % d].append(b // d)
    return betas, runners


def d_core(nu: Partition, d: int) -> Partition:
    """The partition left after stripping ribbons of length d until none remain.

    Computed by packing each runner's beads into its lowest positions, which
    is what repeated bead moves converge to regardless of order.
    """
    _, runners = _runners(nu, d)
    return decode_mask(sum(1 << (q * d + r) for r, runner in enumerate(runners) for q in range(len(runner))))


def d_quotient(nu: Partition, d: int) -> tuple[Partition, ...]:
    """The d-tuple of partitions read off the runners of nu's abacus.

    Sizes satisfy |nu| = |d_core(nu, d)| + d * sum of component sizes.
    """
    _, runners = _runners(nu, d)
    return tuple(decode_mask(sum(1 << q for q in runner)) for runner in runners)


def d_sign(nu: Partition, d: int) -> int | None:
    """Product of ribbon signs over a full stripping of nu into d-ribbons.

    None when the d-core is nonempty (no full stripping exists).  Otherwise
    computed as the sign of the permutation sorting the beta numbers into the
    packed-runner configuration, which is stripping-order independent.
    """
    if d_core(nu, d):
        return None
    betas, runners = _runners(nu, d)
    # The j-th highest bead of runner r (1-based) comes to rest at (len(runner) - j) * d + r.
    seen = [0] * d
    finals = []
    for r in (b % d for b in betas):
        seen[r] += 1
        finals.append((len(runners[r]) - seen[r]) * d + r)
    inversions = sum(a < b for i, a in enumerate(finals) for b in finals[i + 1 :])
    return -1 if inversions % 2 else 1
