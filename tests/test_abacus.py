import random
import time
import tracemalloc

from hypothesis import given, strategies as st

import oracles
from plethy import (
    boxplus,
    d_core,
    d_quotient,
    d_sign,
    partitions_of,
)
from plethy.abacus import decode_mask, encode_mask, mask_ribbons

partitions = st.integers(min_value=0, max_value=10).flatmap(
    lambda n: st.sampled_from(partitions_of(n))
)


def cells(lam):
    return {(i, j) for i, row in enumerate(lam) for j in range(row)}


def is_valid_ribbon(larger, smaller, length):
    """Check directly on cells: right size, connected, no 2x2 square, and
    report the number of rows spanned."""
    skew = cells(larger) - cells(smaller)
    if len(skew) != length or not cells(smaller) <= cells(larger):
        return None
    for i, j in skew:
        if {(i, j), (i, j + 1), (i + 1, j), (i + 1, j + 1)} <= skew:
            return None
    seen = set()
    stack = [next(iter(skew))]
    while stack:
        cell = stack.pop()
        if cell in seen:
            continue
        seen.add(cell)
        i, j = cell
        for neighbor in ((i + 1, j), (i - 1, j), (i, j + 1), (i, j - 1)):
            if neighbor in skew:
                stack.append(neighbor)
    if seen != skew:
        return None
    rows = {i for i, _ in skew}
    return len(rows) - 1


def ribbons(lam, length):
    """(smaller, height, sign) of every ribbon removal, through the bead-mask step."""
    return [
        (decode_mask(smaller), height, (-1) ** height)
        for smaller, height in mask_ribbons(encode_mask(lam), length)
    ]


def strip_fully(nu, d, rng):
    """Remove d-ribbons in a random order until stuck; return (core, sign)."""
    sign = 1
    while True:
        options = ribbons(nu, d)
        if not options:
            return nu, sign
        nu, _, choice_sign = rng.choice(options)
        sign *= choice_sign


class TestRemoveRibbons:
    def test_domino_removals_from_square(self):
        assert ribbons((2, 2), 2) == [
            ((2,), 0, 1),
            ((1, 1), 1, -1),
        ]

    def test_no_ribbon_through_square(self):
        assert ribbons((2, 2), 4) == []

    def test_single_row_strip(self):
        for n in range(1, 7):
            assert ribbons((n,), n) == [((), 0, 1)]

    @given(partitions, st.integers(min_value=1, max_value=5))
    def test_each_removal_is_a_genuine_ribbon(self, lam, length):
        for smaller, height, sign in ribbons(lam, length):
            assert sum(smaller) == sum(lam) - length
            assert is_valid_ribbon(lam, smaller, length) == height, (lam, smaller)
            assert sign == (-1) ** height

    @given(partitions, st.integers(min_value=1, max_value=5))
    def test_removals_are_exhaustive(self, lam, length):
        found = {smaller for smaller, _, _ in ribbons(lam, length)}
        if sum(lam) >= length:
            candidates = {
                mu for mu in partitions_of(sum(lam) - length)
                if is_valid_ribbon(lam, mu, length) is not None
            }
            assert found == candidates

    def test_matches_partition_kernel_exhaustively(self):
        for n in range(11):
            for lam in partitions_of(n):
                for length in range(1, n + 1):
                    assert ribbons(lam, length) == oracles.partition_ribbons(lam, length), (lam, length)


class TestBeadMask:
    def test_examples(self):
        assert encode_mask(()) == 0
        assert encode_mask((2, 1)) == 0b1010
        assert decode_mask(0b1010) == (2, 1)
        assert decode_mask(0b1010 << 3 | 0b111) == (2, 1)

    def test_padded_examples(self):
        # Beta numbers 4, 2, 0 and 3, 2, 1, 0: (2, 1) and () padded to 3 and 4 beads.
        assert encode_mask((2, 1)) << 1 | 1 == 0b10101
        assert encode_mask(()) << 4 | 0b1111 == 0b1111

    @given(partitions, st.integers(min_value=0, max_value=4))
    def test_padded_round_trip(self, lam, extra):
        padded = encode_mask(lam) << extra | ((1 << extra) - 1)
        assert padded.bit_count() == len(lam) + extra
        assert decode_mask(padded) == lam

    def test_round_trip_and_distinct(self):
        masks = set()
        for n in range(13):
            for lam in partitions_of(n):
                mask = encode_mask(lam)
                assert not mask & 1, lam
                assert decode_mask(mask) == lam
                masks.add(mask)
        assert len(masks) == sum(len(partitions_of(n)) for n in range(13))

    def test_removals_stay_canonical(self):
        for n in range(13):
            for lam in partitions_of(n):
                for length in range(1, n + 1):
                    for smaller, _ in mask_ribbons(encode_mask(lam), length):
                        assert not smaller & 1, (lam, length)
                        assert encode_mask(decode_mask(smaller)) == smaller


class TestCoreQuotientSign:
    def test_core_examples(self):
        assert d_core((2, 1), 2) == (2, 1)
        assert d_core((2, 2, 2, 2), 2) == ()
        for nu in partitions_of(6):
            assert d_core(nu, 1) == ()

    def test_quotient_examples(self):
        assert d_quotient((2, 2, 2, 2), 2) == ((1, 1), (1, 1))
        for nu in partitions_of(5):
            assert d_quotient(nu, 1) == (nu,)

    def test_sign_examples(self):
        assert d_sign((1, 1), 2) == -1
        assert d_sign((2,), 2) == 1
        assert d_sign((2, 1), 2) is None
        for nu in partitions_of(5):
            assert d_sign(nu, 1) == 1

    def test_subdivided_shapes_have_constant_quotient(self):
        for n in range(6):
            for lam in partitions_of(n):
                for d in (2, 3):
                    big = boxplus(lam, d)
                    assert d_core(big, d) == ()
                    assert d_quotient(big, d) == (lam,) * d
                    assert d_sign(big, d) == 1

    def test_stripping_order_independence(self):
        for size in range(11):
            for nu in partitions_of(size):
                for d in (2, 3):
                    runs = {strip_fully(nu, d, random.Random(seed)) for seed in range(5)}
                    assert len(runs) == 1, (nu, d, runs)

    def test_runner_route_matches_greedy_stripping(self):
        for size in range(11):
            for nu in partitions_of(size):
                for d in (2, 3):
                    core, sign = strip_fully(nu, d, random.Random(0))
                    assert d_core(nu, d) == core
                    if core == ():
                        assert d_sign(nu, d) == sign
                    else:
                        assert d_sign(nu, d) is None

    def test_size_bookkeeping(self):
        for size in range(11):
            for nu in partitions_of(size):
                for d in (2, 3):
                    quotient = d_quotient(nu, d)
                    assert len(quotient) == d
                    assert sum(nu) == sum(d_core(nu, d)) + d * sum(sum(q) for q in quotient)

    def test_matches_beta_tuple_route_exhaustively(self):
        for n in range(13):
            for nu in partitions_of(n):
                for d in range(1, n + 2):
                    assert d_core(nu, d) == oracles.beta_core(nu, d), (nu, d)
                    assert d_quotient(nu, d) == oracles.beta_quotient(nu, d), (nu, d)
                    assert d_sign(nu, d) == oracles.beta_sign(nu, d), (nu, d)

    def test_core_and_quotient_memory_follows_the_beads_not_the_parts(self):
        # One bead at 10**8 + 1: a runner read as a bit mask would allocate
        # about 5 * 10**7 bits, some 6 MB per int.
        for function in (d_core, d_quotient):
            tracemalloc.start()
            try:
                function((10**8,), 2)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2**20, (function.__name__, peak)

    def test_core_time_follows_the_beads(self):
        # 300,000 beads: packing them into one bit mask and decoding it
        # costs O(beads) bits per bead, some 20 s here.
        start = time.perf_counter()
        assert d_core((10**8,), 300_000) == (100_000,)
        assert time.perf_counter() - start < 3
