import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import oracles
import plethy.mn
from plethy import (
    CharCache,
    ClassFunction,
    SymFunc,
    boxplus,
    centralizer_order,
    ch,
    check_partition,
    format_rational,
    hall_inner,
    mn_value,
    multiply,
    parse_rational,
    partitions_of,
    phi_d_littlewood,
    phi_d_power,
    power_d,
    power_to_schur,
    psi_d,
    schur_to_power,
    sort_key,
    to_power,
)
from plethy.mn import character_row

partitions = st.integers(min_value=0, max_value=8).flatmap(
    lambda n: st.sampled_from(partitions_of(n))
)

small_symfuncs = st.dictionaries(
    st.integers(min_value=0, max_value=5).flatmap(lambda n: st.sampled_from(partitions_of(n))),
    st.fractions(min_value=-5, max_value=5, max_denominator=6),
    max_size=4,
).map(SymFunc)


# Degree at most 6 with rational coefficients: the range of the
# differential tests against the Fraction layer in oracles.
symfuncs_to_6 = st.dictionaries(
    st.integers(min_value=0, max_value=6).flatmap(lambda n: st.sampled_from(partitions_of(n))),
    st.fractions(min_value=-5, max_value=5, max_denominator=6),
    max_size=5,
).map(SymFunc)


def random_homogeneous(rng: random.Random, degree: int) -> SymFunc:
    terms = {}
    for mu in partitions_of(degree):
        if rng.random() < 0.6:
            terms[mu] = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    return SymFunc(terms)


class TestSymFuncType:
    def test_zero_coefficients_pruned(self):
        f = SymFunc({(2, 1): Fraction(0), (3,): Fraction(1)})
        assert f.terms == {(3,): Fraction(1)}
        assert SymFunc({}).is_zero()

    def test_invalid_basis_rejected(self):
        for basis in ("m", "s"):
            with pytest.raises(ValueError, match=f"unknown basis '{basis}'"):
                SymFunc.from_json_dict({"basis": basis, "terms": {"1": "1"}})

    def test_invalid_key_rejected(self):
        with pytest.raises(ValueError):
            SymFunc({(1, 2): 1})

    def test_mixed_degrees_allowed(self):
        f = SymFunc.power((2,)) + SymFunc.power((1,))
        assert sorted(f.degrees()) == [1, 2]
        assert f.homogeneous_component(2).terms == {(2,): Fraction(1)}

    def test_scalar_and_subtraction(self):
        f = 3 * SymFunc.power((2,)) - SymFunc.power((2,))
        assert f.terms == {(2,): Fraction(2)}
        assert (f - f).is_zero()

    def test_json_round_trip(self):
        f = SymFunc({(2, 1): Fraction(-7, 3), (1, 1, 1): Fraction(4)})
        data = f.to_json_dict()
        assert data["basis"] == "p"
        assert data["terms"] == {"2,1": "-7/3", "1,1,1": "4"}
        assert SymFunc.from_json_dict(data).terms == f.terms

    def test_json_missing_field_rejected(self):
        with pytest.raises(ValueError, match="no 'terms' field"):
            SymFunc.from_json_dict({"basis": "p"})

    def test_rational_text(self):
        assert format_rational(Fraction(4)) == "4"
        assert format_rational(Fraction(-7, 3)) == "-7/3"
        assert parse_rational("4") == Fraction(4)
        assert parse_rational("-7/3") == Fraction(-7, 3)


small_class_functions = st.integers(min_value=0, max_value=5).flatmap(
    lambda n: st.dictionaries(
        st.sampled_from(partitions_of(n)), st.fractions(min_value=-5, max_value=5, max_denominator=6)
    ).map(lambda values: ClassFunction.from_partial(n, values))
)


def assert_clean(f: SymFunc) -> None:
    for key, coeff in f.terms.items():
        assert type(coeff) is Fraction and coeff, (key, coeff)
        assert type(key) is tuple and check_partition(key) == key, key


class TestTrustedResults:
    """Results built without the constructor's checks still hold only
    partition keys and nonzero Fraction coefficients."""

    @settings(max_examples=60, deadline=None)
    @given(
        small_symfuncs,
        small_symfuncs,
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=0, max_value=6),
        st.one_of(st.integers(min_value=-3, max_value=3), st.fractions(max_denominator=5)),
        partitions,
        small_class_functions,
    )
    def test_results_are_clean(self, f, g, d, n, scalar, lam, phi):
        for result in (
            multiply(f, g),
            power_d(f, d),
            psi_d(f, d),
            phi_d_power(f, d),
            schur_to_power(lam),
            f.homogeneous_component(n),
            f + g,
            f - g,
            scalar * f,
            ch(phi),
        ):
            assert_clean(result)

    def test_to_power_checks_caller_coefficients(self):
        f = to_power({(2,): 0.5})
        assert f.terms == {(2,): Fraction(1, 4), (1, 1): Fraction(1, 4)}
        assert_clean(f)


class TestTransitions:
    def test_schur_to_power_examples(self):
        assert schur_to_power((1,)).terms == {(1,): Fraction(1)}
        assert schur_to_power((2,)).terms == {(1, 1): Fraction(1, 2), (2,): Fraction(1, 2)}
        assert schur_to_power((1, 1)).terms == {(1, 1): Fraction(1, 2), (2,): Fraction(-1, 2)}

    def test_power_to_schur_examples(self):
        assert power_to_schur(SymFunc.power((1, 1))) == {(2,): Fraction(1), (1, 1): Fraction(1)}
        assert power_to_schur(SymFunc.power((2,))) == {(2,): Fraction(1), (1, 1): Fraction(-1)}

    def test_power_to_schur_keys_in_sort_key_order(self):
        f = SymFunc.power((1, 1, 1)) + SymFunc.power((2,)) + SymFunc.power(()) + SymFunc.power((3, 1))
        keys = list(power_to_schur(f))
        assert sorted({sum(key) for key in keys}) == [0, 2, 3, 4]
        assert keys == sorted(keys, key=sort_key)

    def test_round_trip_power_schur(self):
        for n in range(8):
            for lam in partitions_of(n):
                assert power_to_schur(schur_to_power(lam)) == {lam: Fraction(1)}

    @given(small_symfuncs)
    @settings(max_examples=40, deadline=None)
    def test_round_trip_arbitrary(self, f):
        assert to_power(power_to_schur(f)).terms == f.terms

    def test_to_power_accepts_schur_basis(self):
        assert to_power({(2, 1): 3}).terms == (3 * schur_to_power((2, 1))).terms


def refuse_mn_value(*args, **kwargs):
    raise AssertionError("power_to_schur called mn_value")


class TestPowerToSchurRows:
    """power_to_schur reads each lam's values at f's support from one unchecked
    row read, with no checked mn_value call per (lam, mu)."""

    def test_makes_no_mn_value_call(self, monkeypatch):
        f = schur_to_power((3, 1)) + 2 * SymFunc.power((2, 2)) + SymFunc.power((1,)) + SymFunc.power(())
        monkeypatch.setattr(plethy.mn, "mn_value", refuse_mn_value)
        assert power_to_schur(f) == oracles.fraction_power_to_schur(f.terms)

    @settings(max_examples=60, deadline=None)
    @given(symfuncs_to_6)
    def test_cold_memo_holds_the_support_states_only(self, f):
        """Reading full rows would also store the states of classes outside
        the support; the memo must be what mn_value at the support leaves."""
        cache, expected = CharCache(), CharCache()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(plethy.mn, "mn_value", refuse_mn_value)
            power_to_schur(f, cache)
        for n in f.degrees():
            for lam in partitions_of(n):
                for mu in f.values:
                    if sum(mu) == n:
                        mn_value(lam, mu, expected)

        def keys(memo):
            return {rho: set(table) for rho, table in memo._values.items() if table}

        assert keys(cache) == keys(expected)


class TestMultiply:
    def test_key_union(self):
        prod = multiply(SymFunc.power((2, 1)), SymFunc.power((3, 1)))
        assert prod.terms == {(3, 2, 1, 1): Fraction(1)}

    def test_pieri_smallest_case(self):
        prod = multiply(schur_to_power((1,)), schur_to_power((1,)))
        assert power_to_schur(prod) == {(2,): Fraction(1), (1, 1): Fraction(1)}

    def test_unit(self):
        one = SymFunc.power(())
        f = schur_to_power((3, 1))
        assert multiply(f, one).terms == f.terms

    def test_square_of_schur_row(self):
        sq = power_d(schur_to_power((2,)), 2)
        assert power_to_schur(sq) == {
            (4,): Fraction(1),
            (3, 1): Fraction(1),
            (2, 2): Fraction(1),
        }

    @given(partitions, st.integers(min_value=1, max_value=3))
    @settings(max_examples=40, deadline=None)
    def test_power_d_on_basis_elements(self, mu, d):
        out = power_d(SymFunc.power(mu), d)
        pooled = tuple(sorted(mu * d, reverse=True))
        assert out.terms == {pooled: Fraction(1)}

    def test_power_one_is_identity(self):
        f = schur_to_power((2, 1))
        assert power_d(f, 1).terms == f.terms


class TestHallInner:
    def test_power_sum_orthogonality(self):
        assert hall_inner(SymFunc.power((2, 1)), SymFunc.power((2, 1))) == 2
        assert hall_inner(SymFunc.power((2, 1)), SymFunc.power((3,))) == 0

    def test_schur_orthonormality(self):
        for n in range(7):
            for lam in partitions_of(n):
                for mu in partitions_of(n):
                    value = hall_inner(schur_to_power(lam), schur_to_power(mu))
                    assert value == (1 if lam == mu else 0)

    def test_mixed_degrees_pair_componentwise(self):
        f = SymFunc.power((1,)) + SymFunc.power((2,))
        assert hall_inner(f, f) == 1 + 2


class TestPsiPhi:
    def test_psi_examples(self):
        assert psi_d(SymFunc.power((2, 1)), 2).terms == {(4, 2): Fraction(1)}
        f = schur_to_power((2, 1))
        assert psi_d(f, 1).terms == f.terms

    @given(small_symfuncs, small_symfuncs, st.integers(min_value=2, max_value=3))
    @settings(max_examples=30, deadline=None)
    def test_psi_is_a_ring_map(self, f, g, d):
        assert psi_d(multiply(f, g), d).terms == multiply(psi_d(f, d), psi_d(g, d)).terms

    def test_phi_power_examples(self):
        assert phi_d_power(SymFunc.power((4, 2)), 2).terms == {(2, 1): Fraction(4)}
        assert phi_d_power(SymFunc.power((3,)), 2).is_zero()
        f = schur_to_power((2, 1))
        assert phi_d_power(f, 1).terms == f.terms

    def test_phi_kills_keys_with_nondivisible_parts(self):
        # p_1 * p_1 is p at (1,1); the adjoint pairs it against p at 2*mu,
        # whose parts are all even, so the image is zero.
        f = multiply(SymFunc.power((1,)), SymFunc.power((1,)))
        assert phi_d_power(f, 2).is_zero()
        assert phi_d_power(SymFunc.power((2,)), 2).terms == {(1,): Fraction(2)}

    def test_adjointness_on_basis_elements(self):
        for d in (2, 3):
            for m in range(6):
                for mu in partitions_of(m):
                    for nu in partitions_of(d * m):
                        lhs = hall_inner(psi_d(SymFunc.power(mu), d), SymFunc.power(nu))
                        rhs = hall_inner(SymFunc.power(mu), phi_d_power(SymFunc.power(nu), d))
                        assert lhs == rhs, (mu, nu, d)

    def test_adjointness_on_random_combinations(self):
        rng = random.Random(20260819)
        for _ in range(100):
            d = rng.choice([2, 3])
            degree = rng.randint(0, 5)
            f = random_homogeneous(rng, degree)
            g = random_homogeneous(rng, d * degree)
            assert hall_inner(psi_d(f, d), g) == hall_inner(f, phi_d_power(g, d))


class TestLittlewoodRoute:
    def test_quotient_route_on_subdivided_square(self):
        expected = power_d(schur_to_power((1, 1)), 2)
        assert phi_d_littlewood((2, 2, 2, 2), 2).terms == expected.terms

    def test_nonempty_core_gives_zero_on_both_routes(self):
        assert phi_d_littlewood((2, 1), 2).is_zero()
        assert phi_d_power(schur_to_power((2, 1)), 2).is_zero()

    def test_subdivided_shapes_recover_powers(self):
        for n in range(5):
            for lam in partitions_of(n):
                for d in (2, 3):
                    lhs = phi_d_littlewood(boxplus(lam, d), d)
                    rhs = power_d(schur_to_power(lam), d)
                    assert lhs.terms == rhs.terms, (lam, d)

    def test_agreement_with_power_route(self):
        for size in range(9):
            for nu in partitions_of(size):
                for d in (2, 3):
                    lhs = phi_d_littlewood(nu, d)
                    rhs = phi_d_power(schur_to_power(nu), d)
                    assert lhs.terms == rhs.terms, (nu, d)

    def test_d_one_is_identity(self):
        for nu in partitions_of(5):
            assert phi_d_littlewood(nu, 1).terms == schur_to_power(nu).terms


class TestClassValues:
    """A SymFunc stores F_mu = z_mu * [p_mu]f; terms is the p-coefficient view."""

    def test_schur_functions_are_character_rows(self):
        for n in range(9):
            for lam in partitions_of(n):
                row = character_row(lam)
                f = schur_to_power(lam)
                assert f.values == {mu: value for mu, value in row.items() if value}
                assert all(type(value) is int for value in f.values.values())
                assert f.terms == {mu: Fraction(value, centralizer_order(mu)) for mu, value in row.items() if value}

    def test_constructor_takes_power_sum_coefficients(self):
        f = SymFunc({(2, 2): Fraction(1, 8), (1,): 3})
        assert f.values == {(2, 2): 1, (1,): 3}
        assert f.terms == {(2, 2): Fraction(1, 8), (1,): Fraction(3)}
        assert f == SymFunc.from_json_dict(f.to_json_dict())
        assert f != SymFunc({(2, 2): 1, (1,): 3})


class TestAgainstFractionLayer:
    """The class-value layer against the p-coefficient layer it replaced."""

    @settings(max_examples=80, deadline=None)
    @given(symfuncs_to_6, symfuncs_to_6)
    def test_multiply(self, f, g):
        assert multiply(f, g).terms == oracles.fraction_multiply(f.terms, g.terms)

    @settings(max_examples=80, deadline=None)
    @given(symfuncs_to_6, symfuncs_to_6)
    def test_hall_inner(self, f, g):
        for h in (g, f, f + g):
            assert hall_inner(f, h) == oracles.fraction_hall_inner(f.terms, h.terms)

    @settings(max_examples=60, deadline=None)
    @given(symfuncs_to_6)
    def test_power_to_schur(self, f):
        expected = oracles.fraction_power_to_schur(f.terms)
        result = power_to_schur(f)
        assert list(result.items()) == list(expected.items())
        assert all(type(coeff) is Fraction for coeff in result.values())

    @settings(max_examples=80, deadline=None)
    @given(symfuncs_to_6, st.integers(min_value=1, max_value=3))
    def test_psi_d_and_phi_d_power(self, f, d):
        assert psi_d(f, d).terms == oracles.fraction_psi_d(f.terms, d)
        assert phi_d_power(f, d).terms == oracles.fraction_phi_d_power(f.terms, d)
        image = psi_d(f, d)
        assert phi_d_power(image, d).terms == oracles.fraction_phi_d_power(image.terms, d)
