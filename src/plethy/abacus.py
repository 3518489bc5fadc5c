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
  runner r holds the beads congruent to r mod d, as a mask with bit q set
  when bead q * d + r is; the quotient tuple is ordered by residue
  r = 0, ..., d-1.  Downstream consumers only multiply the quotient
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

from .partitions import Partition, PartitionError, check_partition


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


def _runners(nu: Partition, d: int) -> list[int]:
    """Per residue r, the mask of runner r of nu's abacus on d * ceil(len/d)
    beads: bit q set when bead q * d + r is."""
    if d < 1:
        raise PartitionError(f"ribbon length must be positive, got {d}")
    nu = check_partition(nu)
    pad = -len(nu) % d
    mask = (encode_mask(nu) << pad) | ((1 << pad) - 1)
    runners = [0] * d
    while mask:
        low = mask & -mask
        q, r = divmod(low.bit_length() - 1, d)
        runners[r] |= 1 << q
        mask ^= low
    return runners


def d_core(nu: Partition, d: int) -> Partition:
    """The partition left after stripping ribbons of length d until none remain.

    Computed by packing each runner's beads into its lowest positions, which
    is what repeated bead moves converge to regardless of order.
    """
    runners = _runners(nu, d)
    return decode_mask(sum(1 << (q * d + r) for r, runner in enumerate(runners) for q in range(runner.bit_count())))


def d_quotient(nu: Partition, d: int) -> tuple[Partition, ...]:
    """The d-tuple of partitions read off the runners of nu's abacus.

    Sizes satisfy |nu| = |d_core(nu, d)| + d * sum of component sizes.
    """
    return tuple(decode_mask(runner) for runner in _runners(nu, d))


def d_sign(nu: Partition, d: int) -> int | None:
    """Product of ribbon signs over a full stripping of nu into d-ribbons.

    None when the d-core is nonempty (no full stripping exists).  Otherwise
    computed as the sign of the permutation sorting the beads into the
    packed-runner configuration, which is stripping-order independent.
    """
    runners = _runners(nu, d)
    # The d-core is empty exactly when the packed runners fill 0..t-1, i.e.
    # when every runner holds the same number of beads.
    if len({runner.bit_count() for runner in runners}) > 1:
        return None
    # In ascending position, the k-th bead of runner r (0-based) comes to rest at k * d + r.
    seen = [0] * d
    finals = []
    for q in range(max(runners).bit_length()):
        for r, runner in enumerate(runners):
            if runner >> q & 1:
                finals.append(seen[r] * d + r)
                seen[r] += 1
    inversions = sum(a > b for i, a in enumerate(finals) for b in finals[i + 1 :])
    return -1 if inversions % 2 else 1
