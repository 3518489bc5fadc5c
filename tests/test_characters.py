import random
from fractions import Fraction

import pytest

import oracles
from plethy import (
    CharCache,
    ClassFunction,
    ROUTE_DIRECT,
    ROUTE_PLETHYSTIC,
    SymFunc,
    boxplus_classfunction,
    centralizer_order,
    ch,
    ch_inverse,
    decompose,
    induction_product,
    irreducible_character,
    mn_value,
    partitions_of,
    scaled_classfunction,
    schur_to_power,
)


class TestClassFunctionType:
    def test_total_map_enforced(self):
        with pytest.raises(ValueError, match="missing value"):
            ClassFunction(2, {(2,): Fraction(1)})
        with pytest.raises(ValueError, match="spurious"):
            ClassFunction(2, {(2,): 1, (1, 1): 1, (1,): 1})

    def test_from_partial_fills_zeros(self):
        phi = ClassFunction.from_partial(3, {(3,): 5})
        assert phi.values == {(3,): Fraction(5), (2, 1): Fraction(0), (1, 1, 1): Fraction(0)}

    def test_arithmetic(self):
        chi = irreducible_character((2, 1))
        doubled = 2 * chi
        assert (doubled - chi).values == chi.values
        assert ClassFunction.zero(3).values == {mu: Fraction(0) for mu in partitions_of(3)}

    def test_level_mismatch(self):
        with pytest.raises(ValueError, match="level mismatch"):
            irreducible_character((2,)) + irreducible_character((3,))

    def test_integer_valuedness_flag(self):
        chi = irreducible_character((2, 1))
        assert chi.is_integer_valued()
        assert not (Fraction(1, 2) * chi).is_integer_valued()

    def test_json_round_trip(self):
        chi = irreducible_character((2, 1))
        data = chi.to_json_dict()
        assert data == {"n": 3, "values": {"3": "-1", "2,1": "0", "1,1,1": "2"}}
        assert ClassFunction.from_json_dict(data).values == chi.values

    def test_json_missing_field_rejected(self):
        with pytest.raises(ValueError, match="no 'n' field"):
            ClassFunction.from_json_dict({"values": {}})


class TestValueTypes:
    """A ClassFunction keeps SymFunc's class-value convention: an int where
    the value is integral, a Fraction elsewhere."""

    def test_integral_values_are_ints(self):
        chi = irreducible_character((2, 1))
        for phi in (
            irreducible_character((3, 1)),
            boxplus_classfunction((2, 1), 2, ROUTE_DIRECT),
            boxplus_classfunction((2, 1), 2, ROUTE_PLETHYSTIC),
            scaled_classfunction((2, 1), 2),
            ClassFunction.from_partial(3, {(3,): Fraction(4, 2)}),
            2 * chi,
            ch_inverse(schur_to_power((2, 1)), 3),
        ):
            assert all(type(value) is int for value in phi.values.values()), phi

    def test_other_values_are_fractions(self):
        half = Fraction(1, 2) * irreducible_character((2, 1))
        assert half.values == {(3,): Fraction(-1, 2), (2, 1): 0, (1, 1, 1): 1}
        assert {mu: type(value) for mu, value in half.values.items()} == {
            (3,): Fraction,
            (2, 1): int,
            (1, 1, 1): int,
        }

    def test_ch_keeps_values_and_their_types(self):
        chi = irreducible_character((2, 1))
        for phi in (
            chi,
            Fraction(1, 2) * chi,
            ClassFunction.from_partial(4, {(2, 2): 3, (1, 1, 1, 1): Fraction(1, 3)}),
        ):
            nonzero = {mu: value for mu, value in phi.values.items() if value}
            values = ch(phi).values
            assert values == nonzero
            assert {mu: type(value) for mu, value in values.items()} == {
                mu: type(value) for mu, value in nonzero.items()
            }


class TestCharacteristicMap:
    def test_ch_of_trivial_character(self):
        for n in range(1, 6):
            f = ch(irreducible_character((n,)))
            assert f.terms == {
                mu: Fraction(1, centralizer_order(mu)) for mu in partitions_of(n)
            }

    def test_ch_sends_irreducibles_to_schur(self):
        for n in range(7):
            for lam in partitions_of(n):
                assert ch(irreducible_character(lam)).terms == schur_to_power(lam).terms

    def test_ch_of_zero(self):
        assert ch(ClassFunction.zero(4)).is_zero()

    def test_ch_inverse_of_schur(self):
        for n in range(6):
            for lam in partitions_of(n):
                back = ch_inverse(schur_to_power(lam), n)
                assert back.values == irreducible_character(lam).values

    def test_ch_inverse_of_single_power_sum(self):
        for n in range(1, 6):
            phi = ch_inverse(SymFunc.power((n,)), n)
            expected = ClassFunction.from_partial(n, {(n,): n})
            assert phi.values == expected.values

    def test_inverse_pair_on_random_class_functions(self):
        rng = random.Random(7)
        for n in range(7):
            for _ in range(5):
                phi = ClassFunction(
                    n, {mu: Fraction(rng.randint(-20, 20)) for mu in partitions_of(n)}
                )
                assert ch_inverse(ch(phi), n).values == phi.values

    def test_non_homogeneous_rejected(self):
        f = SymFunc.power((2,)) + SymFunc.power((1,))
        with pytest.raises(ValueError, match="not homogeneous of degree 2"):
            ch_inverse(f, 2)


class TestInductionProduct:
    def test_regular_representation_of_s2(self):
        triv = irreducible_character((1,))
        reg = induction_product(triv, triv)
        assert reg.values == {(2,): Fraction(0), (1, 1): Fraction(2)}
        assert decompose(reg) == {(2,): Fraction(1), (1, 1): Fraction(1)}

    def test_matches_induced_character_oracle(self):
        for a in range(1, 4):
            for b in range(1, 4):
                for lam in partitions_of(a):
                    for mu in partitions_of(b):
                        product = induction_product(
                            irreducible_character(lam), irreducible_character(mu)
                        )
                        expected = oracles.induced_character(
                            {rho: mn_value(lam, rho) for rho in partitions_of(a)},
                            a,
                            {rho: mn_value(mu, rho) for rho in partitions_of(b)},
                            b,
                        )
                        assert product.values == expected, (lam, mu)

    def test_row_times_row_is_multiplicity_free(self):
        for a in range(1, 4):
            for b in range(1, 4):
                product = induction_product(
                    irreducible_character((a,)), irreducible_character((b,))
                )
                mults = decompose(product)
                assert set(mults.values()) <= {Fraction(1)}
                assert all(len(nu) <= 2 for nu in mults)

    def test_commutative(self):
        lhs = induction_product(irreducible_character((2, 1)), irreducible_character((2,)))
        rhs = induction_product(irreducible_character((2,)), irreducible_character((2, 1)))
        assert lhs.values == rhs.values

    def test_multiplicities_nonnegative_integers(self):
        for a in range(1, 5):
            b = 8 - a if 8 - a >= 1 else 1
            for lam in partitions_of(a):
                for mu in partitions_of(b):
                    product = induction_product(
                        irreducible_character(lam), irreducible_character(mu)
                    )
                    for m in decompose(product).values():
                        assert m.denominator == 1 and m >= 0


class TestDecompose:
    def test_irreducible(self):
        assert decompose(irreducible_character((2, 1))) == {(2, 1): Fraction(1)}

    def test_zero(self):
        assert decompose(ClassFunction.zero(4)) == {}

    def test_resynthesis_reproduces_input(self):
        rng = random.Random(11)
        for n in range(1, 7):
            phi = ClassFunction(
                n, {mu: Fraction(rng.randint(-6, 6)) for mu in partitions_of(n)}
            )
            mults = decompose(phi)
            for mu in partitions_of(n):
                total = sum(
                    (m * mn_value(nu, mu) for nu, m in mults.items()), Fraction(0)
                )
                assert total == phi.values[mu]


class TestBoxplusClassFunction:
    def test_smallest_example(self):
        assert boxplus_classfunction((1,), 2).values == {(1,): Fraction(2)}

    def test_row_two_example(self):
        phi = boxplus_classfunction((2,), 2)
        assert phi.values == {(2,): Fraction(2), (1, 1): Fraction(6)}
        assert decompose(phi) == {(2,): Fraction(4), (1, 1): Fraction(2)}

    def test_d_one_is_identity(self):
        for lam in partitions_of(4):
            assert boxplus_classfunction(lam, 1).values == irreducible_character(lam).values

    def test_routes_agree(self):
        for n in range(1, 5):
            for d in (2, 3):
                for lam in partitions_of(n):
                    direct = boxplus_classfunction(lam, d, ROUTE_DIRECT)
                    plethystic = boxplus_classfunction(lam, d, ROUTE_PLETHYSTIC)
                    assert direct.values == plethystic.values, (lam, d)

    def test_unknown_route_rejected(self):
        with pytest.raises(ValueError, match="unknown route"):
            boxplus_classfunction((1,), 2, "sideways")

    def test_against_tuple_summation_oracle(self):
        for n in range(1, 4):
            for d in (2, 3):
                for lam in partitions_of(n):
                    phi = boxplus_classfunction(lam, d)
                    for mu in partitions_of(n):
                        assert phi.values[mu] == oracles.embedding_value(lam, mu, d), (lam, mu, d)

    def test_cold_and_warm_cache_agree(self):
        warm = CharCache()
        first = boxplus_classfunction((2, 1), 2, ROUTE_DIRECT, warm)
        again = boxplus_classfunction((2, 1), 2, ROUTE_DIRECT, warm)
        cold = boxplus_classfunction((2, 1), 2, ROUTE_DIRECT, CharCache())
        assert first.values == again.values == cold.values


class TestScaledClassFunction:
    def test_d_one_is_identity(self):
        for lam in partitions_of(4):
            assert scaled_classfunction(lam, 1).values == irreducible_character(lam).values

    @pytest.mark.parametrize("d", [0, -1])
    def test_nonpositive_d_rejected(self, d):
        with pytest.raises(ValueError, match=f"scale factor must be positive, got {d}"):
            scaled_classfunction((2, 1), d)

    def test_single_box(self):
        assert scaled_classfunction((1,), 2).values == {(1,): Fraction(1)}

    def test_column_example(self):
        phi = scaled_classfunction((1, 1), 2)
        assert phi.values == {(2,): Fraction(0), (1, 1): Fraction(2)}

    def test_values_come_from_scaled_evaluations(self):
        for lam in partitions_of(3):
            phi = scaled_classfunction(lam, 2)
            for mu in partitions_of(3):
                assert phi.values[mu] == mn_value(
                    tuple(2 * p for p in lam), tuple(2 * p for p in mu)
                )
