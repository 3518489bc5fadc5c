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

from collections.abc import Sequence
from dataclasses import dataclass

from .partitions import EMPTY, Partition, PartitionError, check_partition


@dataclass(frozen=True)
class BetaSet:
    """Strictly decreasing nonnegative beta numbers encoding a partition."""

    betas: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.betas)

    def to_partition(self) -> Partition:
        """Decode: subtract the staircase t-1-i and drop zero parts."""
        return _decode(self.betas)


def beta_set(lam: Partition, t: int) -> BetaSet:
    """Beta numbers of lam using t beads; t must cover every part of lam."""
    lam = check_partition(lam)
    if t < len(lam):
        raise PartitionError(f"beta-set too short: {t} beads for {len(lam)} parts")
    padded = lam + (0,) * (t - len(lam))
    return BetaSet(tuple(padded[i] + t - 1 - i for i in range(t)))


def _decode(betas_desc: Sequence[int]) -> Partition:
    t = len(betas_desc)
    return tuple(b - (t - 1 - i) for i, b in enumerate(betas_desc) if b - (t - 1 - i) > 0)


@dataclass(frozen=True)
class RibbonRemoval:
    """One way to strip a border strip: the smaller shape, its height, its sign."""

    smaller: Partition
    height: int
    sign: int


def remove_ribbons(lam: Partition, length: int) -> list[RibbonRemoval]:
    """All single removals of a ribbon of the given length from lam.

    Returns the empty list when no such ribbon exists.  Order is by the
    abacus position of the moved bead, ascending; for the diagram this means
    ribbons closer to the bottom row come first.
    """
    lam = check_partition(lam)
    if length < 1:
        raise PartitionError(f"ribbon length must be positive, got {length}")
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
        removals.append(RibbonRemoval(_decode(moved), height, -1 if height % 2 else 1))
    return removals


def _runner_counts(nu: Partition, d: int) -> tuple[tuple[int, ...], list[list[int]]]:
    """Beta numbers split by residue mod d, using d * ceil(len/d) beads.

    Returns (betas, runners) where runners[r] lists the b // d values of the
    beads congruent to r, sorted decreasing.
    """
    t = -(-len(nu) // d) * d
    betas = beta_set(nu, t).betas
    runners: list[list[int]] = [[] for _ in range(d)]
    for b in betas:
        runners[b % d].append(b // d)
    for runner in runners:
        runner.sort(reverse=True)
    return betas, runners


def d_core(nu: Partition, d: int) -> Partition:
    """The partition left after stripping ribbons of length d until none remain.

    Computed by packing each runner's beads into its lowest positions, which
    is what repeated bead moves converge to regardless of order.
    """
    if d < 1:
        raise PartitionError(f"ribbon length must be positive, got {d}")
    _, runners = _runner_counts(check_partition(nu), d)
    packed = sorted(
        (q * d + r for r, runner in enumerate(runners) for q in range(len(runner))),
        reverse=True,
    )
    return _decode(packed)


def d_quotient(nu: Partition, d: int) -> tuple[Partition, ...]:
    """The d-tuple of partitions read off the runners of nu's abacus.

    Sizes satisfy |nu| = |d_core(nu, d)| + d * sum of component sizes.
    """
    if d < 1:
        raise PartitionError(f"ribbon length must be positive, got {d}")
    _, runners = _runner_counts(check_partition(nu), d)
    return tuple(_decode(runner) for runner in runners)


def d_sign(nu: Partition, d: int) -> int | None:
    """Product of ribbon signs over a full stripping of nu into d-ribbons.

    None when the d-core is nonempty (no full stripping exists).  Otherwise
    computed as the sign of the permutation sorting the beta numbers into the
    packed-runner configuration, which is stripping-order independent.
    """
    if d < 1:
        raise PartitionError(f"ribbon length must be positive, got {d}")
    nu = check_partition(nu)
    if d_core(nu, d):
        return None
    betas, runners = _runner_counts(nu, d)
    # Final resting position of each bead: the j-th highest bead of runner r
    # (0-based) ends at (len(runner) - 1 - j) * d + r.
    seen: dict[int, int] = {}
    finals = []
    for b in sorted(betas, reverse=True):
        r = b % d
        j = seen.get(r, 0)
        seen[r] = j + 1
        finals.append((len(runners[r]) - 1 - j) * d + r)
    inversions = sum(
        1
        for i in range(len(finals))
        for j in range(i + 1, len(finals))
        if finals[i] < finals[j]
    )
    return -1 if inversions % 2 else 1
