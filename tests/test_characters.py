import random
from fractions import Fraction

import pytest

import oracles
from plethy import (
    CharCache,
    ROUTE_DIRECT,
    ROUTE_PLETHYSTIC,
    SymFunc,
    boxplus,
    boxplus_classfunction,
    centralizer_order,
    decompose,
    mn_value,
    multiply,
    partitions_of,
    scale,
    scaled_classfunction,
    schur_to_power,
)


def class_function(values: dict) -> SymFunc:
    """The SymFunc whose class values are values: its power-sum
    coefficients are the values over the centralizer orders."""
    return SymFunc({mu: Fraction(value, centralizer_order(mu)) for mu, value in values.items()})


class TestClassFunctionType:
    def test_arithmetic(self):
        chi = schur_to_power((2, 1))
        doubled = 2 * chi
        assert (doubled - chi).values == chi.values
        assert (chi - chi).is_zero() and (chi - chi).values == {}


class TestValueTypes:
    """A class function is a SymFunc and keeps its class-value convention:
    an int where the value is integral, a Fraction elsewhere."""

    def test_integral_values_are_ints(self):
        chi = schur_to_power((2, 1))
        for phi in (
            schur_to_power((3, 1)),
            boxplus_classfunction((2, 1), 2, ROUTE_DIRECT),
            boxplus_classfunction((2, 1), 2, ROUTE_PLETHYSTIC),
            scaled_classfunction((2, 1), 2),
            class_function({(3,): Fraction(4, 2)}),
            2 * chi,
            Fraction(4, 2) * chi,
            Fraction(1, 2) * chi + Fraction(1, 2) * chi,
        ):
            assert all(type(value) is int for value in phi.values.values()), phi

    def test_other_values_are_fractions(self):
        half = Fraction(1, 2) * schur_to_power((2, 1))
        assert half.values == {(3,): Fraction(-1, 2), (1, 1, 1): 1}
        assert {mu: type(value) for mu, value in half.values.items()} == {(3,): Fraction, (1, 1, 1): int}


class TestCharacteristicMap:
    """The characteristic map is the identity on SymFunc: the SymFunc whose
    class values are a character is that character's symmetric function."""

    def test_ch_of_trivial_character(self):
        for n in range(1, 6):
            f = class_function({mu: 1 for mu in partitions_of(n)})
            assert f.terms == {
                mu: Fraction(1, centralizer_order(mu)) for mu in partitions_of(n)
            }
            assert f == schur_to_power((n,))

    def test_ch_sends_irreducibles_to_schur(self):
        for n in range(7):
            for lam in partitions_of(n):
                f = class_function({rho: mn_value(lam, rho) for rho in partitions_of(n)})
                assert f.terms == schur_to_power(lam).terms

    def test_ch_of_zero(self):
        assert class_function({mu: 0 for mu in partitions_of(4)}).is_zero()

    def test_ch_inverse_of_schur(self):
        for n in range(6):
            for lam in partitions_of(n):
                values = schur_to_power(lam).values
                back = {rho: values.get(rho, 0) for rho in partitions_of(n)}
                assert back == {rho: mn_value(lam, rho) for rho in partitions_of(n)}

    def test_ch_inverse_of_single_power_sum(self):
        for n in range(1, 6):
            assert SymFunc({(n,): 1}).values == {(n,): n}


class TestInductionProduct:
    """The induction product of two characters is the product of their
    symmetric functions."""

    def test_regular_representation_of_s2(self):
        triv = schur_to_power((1,))
        reg = multiply(triv, triv)
        assert reg.values == {(1, 1): 2}
        assert decompose(reg) == {(2,): 1, (1, 1): 1}

    def test_matches_induced_character_oracle(self):
        for a in range(1, 4):
            for b in range(1, 4):
                for lam in partitions_of(a):
                    for mu in partitions_of(b):
                        product = multiply(schur_to_power(lam), schur_to_power(mu))
                        expected = oracles.induced_character(
                            {rho: mn_value(lam, rho) for rho in partitions_of(a)},
                            a,
                            {rho: mn_value(mu, rho) for rho in partitions_of(b)},
                            b,
                        )
                        values = {rho: product.values.get(rho, 0) for rho in partitions_of(a + b)}
                        assert values == expected, (lam, mu)

    def test_row_times_row_is_multiplicity_free(self):
        for a in range(1, 4):
            for b in range(1, 4):
                mults = decompose(multiply(schur_to_power((a,)), schur_to_power((b,))))
                assert set(mults.values()) <= {1}
                assert all(len(nu) <= 2 for nu in mults)

    def test_commutative(self):
        lhs = multiply(schur_to_power((2, 1)), schur_to_power((2,)))
        rhs = multiply(schur_to_power((2,)), schur_to_power((2, 1)))
        assert lhs == rhs

    def test_multiplicities_nonnegative_integers(self):
        for a in range(1, 5):
            b = 8 - a if 8 - a >= 1 else 1
            for lam in partitions_of(a):
                for mu in partitions_of(b):
                    product = multiply(schur_to_power(lam), schur_to_power(mu))
                    for m in decompose(product).values():
                        assert m.denominator == 1 and m >= 0


class TestDecompose:
    def test_irreducible(self):
        assert decompose(schur_to_power((2, 1))) == {(2, 1): 1}

    def test_zero(self):
        assert decompose(SymFunc()) == {}

    def test_resynthesis_reproduces_input(self):
        rng = random.Random(11)
        for n in range(1, 7):
            values = {mu: rng.randint(-6, 6) for mu in partitions_of(n)}
            mults = decompose(class_function(values))
            for mu in partitions_of(n):
                total = sum(
                    (m * mn_value(nu, mu) for nu, m in mults.items()), Fraction(0)
                )
                assert total == values[mu]


class TestBoxplusClassFunction:
    def test_smallest_example(self):
        assert boxplus_classfunction((1,), 2).values == {(1,): Fraction(2)}

    def test_row_two_example(self):
        phi = boxplus_classfunction((2,), 2)
        assert phi.values == {(2,): Fraction(2), (1, 1): Fraction(6)}
        assert decompose(phi) == {(2,): Fraction(4), (1, 1): Fraction(2)}

    def test_d_one_is_identity(self):
        for lam in partitions_of(4):
            assert boxplus_classfunction(lam, 1) == schur_to_power(lam)

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

    @pytest.mark.parametrize("route", [ROUTE_DIRECT, ROUTE_PLETHYSTIC])
    @pytest.mark.parametrize("d", [2.0, True])
    def test_non_int_d_rejected(self, route, d):
        with pytest.raises(ValueError, match=f"grid factor must be an integer, got {d!r}"):
            boxplus_classfunction((2, 1), d, route)

    def test_against_tuple_summation_oracle(self):
        for n in range(1, 4):
            for d in (2, 3):
                for lam in partitions_of(n):
                    phi = boxplus_classfunction(lam, d)
                    for mu in partitions_of(n):
                        assert phi.values.get(mu, 0) == oracles.embedding_value(lam, mu, d), (lam, mu, d)

    def test_cold_and_warm_cache_agree(self):
        warm = CharCache()
        first = boxplus_classfunction((2, 1), 2, ROUTE_DIRECT, warm)
        again = boxplus_classfunction((2, 1), 2, ROUTE_DIRECT, warm)
        cold = boxplus_classfunction((2, 1), 2, ROUTE_DIRECT, CharCache())
        assert first.values == again.values == cold.values


class TestClassLists:
    """Both class functions read their classes from one memo per (core, n, d):
    asked in an interleaved order, with a size and a factor repeated, they
    equal class functions whose classes are built inline."""

    GRID = [(3, 2), (3, 3), (4, 2), (3, 2)]

    def test_boxplus_classfunction(self):
        for n, d in self.GRID:
            for lam in partitions_of(n):
                inline = SymFunc._of({mu: mn_value(boxplus(lam, d), boxplus(mu, d)) for mu in partitions_of(n)})
                for route in (ROUTE_DIRECT, ROUTE_PLETHYSTIC):
                    assert boxplus_classfunction(lam, d, route) == inline, (lam, d, route)

    def test_scaled_classfunction(self):
        for n, d in self.GRID:
            for lam in partitions_of(n):
                inline = SymFunc._of({mu: mn_value(scale(lam, d), scale(mu, d)) for mu in partitions_of(n)})
                assert scaled_classfunction(lam, d) == inline, (lam, d)


class TestScaledClassFunction:
    def test_d_one_is_identity(self):
        for lam in partitions_of(4):
            assert scaled_classfunction(lam, 1) == schur_to_power(lam)

    @pytest.mark.parametrize("d", [0, -1])
    def test_nonpositive_d_rejected(self, d):
        with pytest.raises(ValueError, match=f"scale factor must be positive, got {d}"):
            scaled_classfunction((2, 1), d)

    @pytest.mark.parametrize("d", [2.0, True])
    def test_non_int_d_rejected(self, d):
        with pytest.raises(ValueError, match=f"scale factor must be an integer, got {d!r}"):
            scaled_classfunction((2, 1), d)

    def test_single_box(self):
        assert scaled_classfunction((1,), 2).values == {(1,): Fraction(1)}

    def test_column_example(self):
        # The value 0 at (2) is not stored.
        phi = scaled_classfunction((1, 1), 2)
        assert phi.values == {(1, 1): Fraction(2)}

    def test_values_come_from_scaled_evaluations(self):
        for lam in partitions_of(3):
            phi = scaled_classfunction(lam, 2)
            for mu in partitions_of(3):
                assert phi.values.get(mu, 0) == mn_value(
                    tuple(2 * p for p in lam), tuple(2 * p for p in mu)
                )
