import math
import re

import pytest
from hypothesis import given, strategies as st

import oracles
from plethy import partitions as partitions_mod
from plethy import (
    EMPTY,
    PartitionError,
    boxplus,
    centralizer_order,
    check_partition,
    conjugate,
    format_partition,
    multiplicity_pattern,
    parse_partition,
    partitions_of,
    scale,
    sort_key,
    union,
    union_power,
)
from plethy.abacus import d_core, d_quotient, d_sign
from plethy.verify import hall_summation_oracle

partitions = st.integers(min_value=0, max_value=10).flatmap(
    lambda n: st.sampled_from(partitions_of(n))
)


class TestPartitionsOf:
    def test_zero(self):
        assert partitions_of(0) == [()]

    def test_three(self):
        assert partitions_of(3) == [(3,), (2, 1), (1, 1, 1)]

    def test_five_has_seven(self):
        assert len(partitions_of(5)) == 7

    def test_counts_match_brute_force(self):
        for n in range(21):
            assert len(partitions_of(n)) == oracles.count_partitions(n)

    def test_descending_lexicographic(self):
        for n in range(9):
            parts = partitions_of(n)
            assert parts == sorted(parts, reverse=True)
            assert len(set(parts)) == len(parts)
            assert all(sum(mu) == n for mu in parts)

    def test_negative_rejected(self):
        with pytest.raises(PartitionError, match="^cannot enumerate partitions of negative -1$"):
            partitions_of(-1)

    @pytest.mark.parametrize("n", [2.0, True])
    def test_non_int_rejected(self, n):
        # True hashes equal to 1, so the memoized enumeration would answer it as S_1's.
        with pytest.raises(ValueError, match=f"^n must be an integer, got {n!r}$"):
            partitions_of(n)


class TestBasics:
    def test_centralizer_order(self):
        assert centralizer_order((1, 1, 1)) == 6
        assert centralizer_order((2, 1)) == 2
        assert centralizer_order((4, 2)) == 8
        assert centralizer_order(EMPTY) == 1

    def test_class_sizes_partition_the_group(self):
        for n in range(13):
            assert sum(math.factorial(n) // centralizer_order(mu) for mu in partitions_of(n)) == math.factorial(n)

    def test_union_weight_is_a_product_of_binomials(self):
        # The symmetric-function layer multiplies class values with the
        # weight z_nu / (z_mu * z_kappa) at nu = mu u kappa.
        everything = [mu for n in range(11) for mu in partitions_of(n)]
        for mu in everything:
            for kappa in everything:
                if sum(mu) + sum(kappa) > 10:
                    continue
                nu = union(mu, kappa)
                weight, remainder = divmod(centralizer_order(nu), centralizer_order(mu) * centralizer_order(kappa))
                assert remainder == 0, (mu, kappa)
                assert weight == math.prod(math.comb(nu.count(i), mu.count(i)) for i in set(nu)), (mu, kappa)

    def test_centralizer_memo_is_bounded_and_takes_the_empty_partition(self):
        assert centralizer_order(EMPTY) == centralizer_order(()) == 1
        assert centralizer_order.cache_info().maxsize is not None

    @given(partitions)
    def test_class_size_is_integer(self, mu):
        n = sum(mu)
        assert math.factorial(n) % centralizer_order(mu) == 0

    def test_check_partition_rejects_bad_input(self):
        with pytest.raises(PartitionError):
            check_partition((1, 2))
        with pytest.raises(PartitionError):
            check_partition((2, 0))
        with pytest.raises(PartitionError):
            check_partition((2, -1))
        assert check_partition([3, 1, 1]) == (3, 1, 1)


class PartsTuple(tuple):
    pass


def count_full_checks(monkeypatch):
    """The parts each full check_partition loop walked: the loop is the
    module's one enumerate call, so a module-level enumerate sees it."""
    walked = []

    def counting(parts):
        walked.append(parts)
        return enumerate(parts)

    monkeypatch.setattr(partitions_mod, "enumerate", counting, raising=False)
    return walked


class TestCheckFastPath:
    """check_partition returns a tuple that partitions_of built at once, by
    identity: an equal object, or one that only hashes equal, gets the full check."""

    def test_enumerated_tuples_come_back_as_themselves(self, monkeypatch):
        walked = count_full_checks(monkeypatch)
        for n in range(13):
            for mu in partitions_of(n):
                assert check_partition(mu) is mu
        assert walked == []

    @pytest.mark.parametrize(
        "parts, message",
        [
            ((2, True), "part True is not a positive integer"),
            ((2.0, 1), "part 2.0 is not a positive integer"),
            ((1, 2), "parts not weakly decreasing at 2"),
            (([1],), "part [1] is not a positive integer"),  # unhashable: the registry is keyed by id
        ],
    )
    def test_lookalikes_keep_their_messages(self, parts, message):
        with pytest.raises(PartitionError, match=f"^{re.escape(f'invalid partition {parts!r}: {message}')}$"):
            check_partition(parts)

    @pytest.mark.parametrize("parts", [[2, 1], tuple([2, 1]), PartsTuple((2, 1))], ids=["list", "fresh", "subclass"])
    def test_equal_objects_get_the_full_check(self, parts, monkeypatch):
        walked = count_full_checks(monkeypatch)
        mu = check_partition(parts)
        assert (type(mu), mu, walked) == (tuple, (2, 1), [(2, 1)])
        assert mu is not partitions_of(3)[1]


class TestBoxplusScale:
    def test_boxplus_examples(self):
        assert boxplus((1,), 2) == (2, 2)
        assert boxplus((2, 1), 2) == (4, 4, 2, 2)

    @given(partitions)
    def test_boxplus_identity(self, lam):
        assert boxplus(lam, 1) == lam

    @given(partitions, st.integers(min_value=1, max_value=4))
    def test_boxplus_size_and_multiplicities(self, lam, d):
        big = boxplus(lam, d)
        assert sum(big) == d * d * sum(lam)
        for i in set(lam):
            assert big.count(i * d) == d * lam.count(i)
        assert all(part % d == 0 for part in big)

    def test_scale_examples(self):
        assert scale((2, 1), 3) == (6, 3)
        assert scale((1, 1), 2) == (2, 2)

    @given(partitions, st.integers(min_value=1, max_value=4))
    def test_scale_postconditions(self, lam, d):
        scaled = scale(lam, d)
        assert scaled == tuple(d * part for part in lam)
        assert sum(scaled) == d * sum(lam)
        assert scale(lam, 1) == lam


# Every function taking a factor d, its name in the error, and its other arguments.
FACTOR_FUNCTIONS = [
    (boxplus, "grid factor", ((2, 1),)),
    (scale, "scale factor", ((2, 1),)),
    (union_power, "union power", ((2, 1),)),
    (d_core, "ribbon length", ((2, 1),)),
    (d_quotient, "ribbon length", ((2, 1),)),
    (d_sign, "ribbon length", ((2, 1),)),
    (hall_summation_oracle, "d", ((2, 1), (2, 1))),
]
FACTOR_IDS = [function.__name__ for function, _, _ in FACTOR_FUNCTIONS]


class TestIntFactor:
    """One check, config._check_positive, for the factor d of every partition
    function: 2.0 and True hash equal to 2 and 1, and only ints are exact."""

    @pytest.mark.parametrize("d", [2.0, True])
    @pytest.mark.parametrize("function, name, args", FACTOR_FUNCTIONS, ids=FACTOR_IDS)
    def test_non_int_d_rejected(self, function, name, args, d):
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got {d!r}$"):
            function(*args, d)

    @pytest.mark.parametrize("function, name, args", FACTOR_FUNCTIONS, ids=FACTOR_IDS)
    def test_int_d_below_one_keeps_its_message(self, function, name, args):
        for d in (0, -1):
            with pytest.raises(ValueError, match=f"^{name} must be positive, got {d}$"):
                function(*args, d)


class TestUnion:
    def test_examples(self):
        assert union((2, 1), (3, 1)) == (3, 2, 1, 1)
        assert union(EMPTY, (5, 2)) == (5, 2)
        assert union_power((2, 1), 2) == (2, 2, 1, 1)

    @given(partitions, partitions)
    def test_commutative_and_sizes_add(self, mu, nu):
        assert union(mu, nu) == union(nu, mu)
        assert sum(union(mu, nu)) == sum(mu) + sum(nu)

    @given(partitions, partitions, partitions)
    def test_associative(self, mu, nu, rho):
        assert union(union(mu, nu), rho) == union(mu, union(nu, rho))

    @given(partitions)
    def test_identity(self, mu):
        assert union(mu, EMPTY) == mu

    @given(partitions, st.integers(min_value=1, max_value=4))
    def test_union_power_matches_iterated_union(self, mu, d):
        out = EMPTY
        for _ in range(d):
            out = union(out, mu)
        assert union_power(mu, d) == out


class TestMultiplicityPattern:
    def test_paper_tuple(self):
        tup = ((2, 1), (3,), (1, 1, 1), (3,), (2, 1))
        assert multiplicity_pattern(tup) == (2, 2, 1)

    def test_constant_tuple(self):
        assert multiplicity_pattern(((2, 1),) * 4) == (4,)

    def test_distinct_entries(self):
        assert multiplicity_pattern(((3,), (2, 1), (1, 1, 1))) == (1, 1, 1)

    @given(st.lists(partitions, min_size=1, max_size=6), st.randoms())
    def test_reorder_invariant(self, tup, rng):
        shuffled = list(tup)
        rng.shuffle(shuffled)
        assert multiplicity_pattern(tuple(shuffled)) == multiplicity_pattern(tuple(tup))

    def test_empty_tuple_rejected(self):
        with pytest.raises(ValueError):
            multiplicity_pattern(())


class TestConjugate:
    def test_examples(self):
        assert conjugate((3, 1)) == (2, 1, 1)
        assert conjugate((4,)) == (1, 1, 1, 1)
        assert conjugate(EMPTY) == EMPTY

    @given(partitions)
    def test_involution(self, lam):
        assert conjugate(conjugate(lam)) == lam
        assert sum(conjugate(lam)) == sum(lam)


class TestTextForm:
    def test_parse_examples(self):
        assert parse_partition("4,4,2,2") == (4, 4, 2, 2)
        assert parse_partition("") == EMPTY
        assert parse_partition(" 3 , 1 ") == (3, 1)

    @given(partitions)
    def test_round_trip(self, mu):
        assert parse_partition(format_partition(mu)) == mu

    def test_parse_errors_name_the_token(self):
        with pytest.raises(PartitionError, match="'x'"):
            parse_partition("3,x,1")
        with pytest.raises(PartitionError):
            parse_partition("1,2")
        with pytest.raises(PartitionError):
            parse_partition("0")


class TestSortKey:
    def test_orders_by_size_then_descending_lex(self):
        everything = [mu for n in range(7) for mu in partitions_of(n)]
        assert sorted(everything, key=sort_key) == everything
