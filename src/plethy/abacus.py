"""Bead-mask (abacus) combinatorics: ribbon removal, cores, quotients, signs.

A partition is encoded as a bead mask, an int with bit b set when b is a
beta number.  The canonical mask has one bead per row, lam[i] + t - 1 - i
for t = len(lam); shifting a mask up by p and filling bits 0..p-1 pads it
with p zero rows, which decode to the same partition.  Removing a ribbon
(border strip) of length k is moving one bead from position b down to the
empty position b - k; the ribbon's height is the number of beads strictly
between the two positions.

Conventions fixed here, since the literature varies:

* d-quotient: pad the canonical mask to t = d * ceil(len(nu) / d) beads;
  runner r holds the beads congruent to r mod d, as the ascending list
  q_0 < q_1 < ... of their levels (bead q * d + r), so its size follows the
  number of beads, not the largest part; the nonzero q_j - j are the parts
  of the runner's quotient component, and the quotient tuple is ordered by
  residue r = 0, ..., d-1.  Downstream consumers only multiply the quotient
  components together, so the ordering is internal, but it is fixed for
  reproducible output.
* d-sign: sign of the permutation that moves every bead down its runner into
  the packed (core) configuration.  This equals the product of ribbon signs
  over any full stripping sequence, which is how the tests validate it.
  Undefined (None) when the d-core is nonempty, i.e. when no full stripping
  to the empty partition exists.
"""

from __future__ import annotations

import functools

from .config import _check_positive
from .partitions import Partition, check_partition


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


def _beads(nu: Partition, d: int) -> list[int]:
    """The bead positions of nu's abacus on t = d * ceil(len/d) beads, descending:
    row i at nu[i] + t - 1 - i, then the padding beads at pad - 1, ..., 0."""
    _check_positive("ribbon length", d)
    nu = check_partition(nu)
    pad = -len(nu) % d
    return [part + len(nu) + pad - 1 - i for i, part in enumerate(nu)] + list(range(pad - 1, -1, -1))


def _runners(nu: Partition, d: int) -> list[list[int]]:
    """Per residue r, the levels q of the beads q * d + r of nu's abacus, ascending."""
    beads = _beads(nu, d)
    runners: list[list[int]] = [[] for _ in range(d)]
    for bead in reversed(beads):
        runners[bead % d].append(bead // d)
    return runners


def _parts(levels: list[int]) -> Partition:
    """The partition of ascending bead positions: the nonzero position minus index, largest first."""
    return tuple(part for part in reversed([level - j for j, level in enumerate(levels)]) if part)


def d_core(nu: Partition, d: int) -> Partition:
    """The partition left after stripping ribbons of length d until none remain.

    Computed by packing each runner's beads into its lowest positions, which
    is what repeated bead moves converge to regardless of order.
    """
    return _parts(sorted(k * d + r for r, runner in enumerate(_runners(nu, d)) for k in range(len(runner))))


def d_quotient(nu: Partition, d: int) -> tuple[Partition, ...]:
    """The d-tuple of partitions read off the runners of nu's abacus.

    Sizes satisfy |nu| = |d_core(nu, d)| + d * sum of component sizes.
    """
    return tuple(map(_parts, _runners(nu, d)))


def d_sign(nu: Partition, d: int) -> int | None:
    """Product of ribbon signs over a full stripping of nu into d-ribbons.

    None when the d-core is nonempty (no full stripping exists).  Otherwise
    computed as the sign of the permutation sorting the beads into the
    packed-runner configuration, which is stripping-order independent.
    """
    beads = _beads(nu, d)
    # In ascending position, the k-th bead of runner r (0-based) comes to rest at k * d + r.
    seen = [0] * d
    rest = []
    for bead in reversed(beads):
        rest.append(seen[bead % d] * d + bead % d)
        seen[bead % d] += 1
    # The d-core is empty exactly when every runner holds the same number of
    # beads, i.e. when the rest positions fill 0..t-1.
    if len(set(seen)) > 1:
        return None
    # The permutation j -> rest[j] has sign (-1)^(t - cycles); walking a cycle clears it.
    cycles = 0
    for j in range(len(rest)):
        cycles += rest[j] is not None
        while rest[j] is not None:
            rest[j], j = None, rest[j]
    return -1 if (len(rest) - cycles) % 2 else 1
