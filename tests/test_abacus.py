import random

import pytest
from hypothesis import given, strategies as st

import oracles
from plethy import (
    PartitionError,
    beta_set,
    boxplus,
    d_core,
    d_quotient,
    d_sign,
    partitions_of,
    remove_ribbons,
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


def strip_fully(nu, d, rng):
    """Remove d-ribbons in a random order until stuck; return (core, sign)."""
    sign = 1
    while True:
        options = remove_ribbons(nu, d)
        if not options:
            return nu, sign
        choice = rng.choice(options)
        sign *= choice.sign
        nu = choice.smaller


class TestBetaSet:
    def test_examples(self):
        assert beta_set((2, 1), 3).betas == (4, 2, 0)
        assert beta_set((), 4).betas == (3, 2, 1, 0)

    def test_too_short(self):
        with pytest.raises(PartitionError, match="beta-set too short"):
            beta_set((2, 1), 1)

    @given(partitions, st.integers(min_value=0, max_value=4))
    def test_round_trip(self, lam, extra):
        bs = beta_set(lam, len(lam) + extra)
        assert bs.size == len(lam) + extra
        assert list(bs.betas) == sorted(bs.betas, reverse=True)
        assert len(set(bs.betas)) == bs.size
        assert bs.to_partition() == lam


class TestRemoveRibbons:
    def test_domino_removals_from_square(self):
        out = remove_ribbons((2, 2), 2)
        assert [(r.smaller, r.height, r.sign) for r in out] == [
            ((2,), 0, 1),
            ((1, 1), 1, -1),
        ]

    def test_no_ribbon_through_square(self):
        assert remove_ribbons((2, 2), 4) == []

    def test_single_row_strip(self):
        for n in range(1, 7):
            out = remove_ribbons((n,), n)
            assert [(r.smaller, r.height, r.sign) for r in out] == [((), 0, 1)]

    @given(partitions, st.integers(min_value=1, max_value=5))
    def test_each_removal_is_a_genuine_ribbon(self, lam, length):
        for removal in remove_ribbons(lam, length):
            assert sum(removal.smaller) == sum(lam) - length
            height = is_valid_ribbon(lam, removal.smaller, length)
            assert height is not None, (lam, removal)
            assert removal.height == height
            assert removal.sign == (-1) ** height

    @given(partitions, st.integers(min_value=1, max_value=5))
    def test_removals_are_exhaustive(self, lam, length):
        found = {r.smaller for r in remove_ribbons(lam, length)}
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
                    out = [(r.smaller, r.height, r.sign) for r in remove_ribbons(lam, length)]
                    assert out == oracles.partition_ribbons(lam, length), (lam, length)


class TestBeadMask:
    def test_examples(self):
        assert encode_mask(()) == 0
        assert encode_mask((2, 1)) == 0b1010
        assert decode_mask(0b1010) == (2, 1)
        assert decode_mask(0b1010 << 3 | 0b111) == (2, 1)

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
