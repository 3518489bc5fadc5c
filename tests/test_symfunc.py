import ast
import hashlib
import os
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
import plethy.mn
import plethy.symfunc
from plethy import (
    CharCache,
    PartitionError,
    ROUTE_PLETHYSTIC,
    SymFunc,
    boxplus,
    boxplus_classfunction,
    centralizer_order,
    character_table,
    check_partition,
    format_rational,
    hall_inner,
    mn_value,
    multiply,
    parse_partition,
    partitions_of,
    phi_d_littlewood,
    phi_d_power,
    power_d,
    power_to_schur,
    psi_d,
    run_verify_all,
    schur_to_power,
    sort_key,
    to_power,
    verify_theorem2_div,
)
from test_cli import VERIFY_ALL_TABLE_8_CACHE_ENTRIES, VERIFY_ALL_TABLE_8_CACHE_SHA256

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


# Mixed degrees up to 36, the empty partition included, with keys that are
# often scaled by a factor in 1..6, so that phi_d keeps some of them.
mixed_degree_symfuncs = st.dictionaries(
    st.tuples(partitions.filter(lambda mu: sum(mu) <= 6), st.integers(min_value=1, max_value=6)).map(
        lambda pair: tuple(part * pair[1] for part in pair[0])
    ),
    st.fractions(min_value=-5, max_value=5, max_denominator=6),
    max_size=8,
).map(SymFunc)


schur_expansions_to_6 = st.dictionaries(
    st.integers(min_value=0, max_value=6).flatmap(lambda n: st.sampled_from(partitions_of(n))),
    st.fractions(min_value=-5, max_value=5, max_denominator=6),
    max_size=5,
)


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

    def test_invalid_key_rejected(self):
        with pytest.raises(ValueError):
            SymFunc({(1, 2): 1})

    def test_mixed_degrees_allowed(self):
        f = SymFunc({(2,): 1}) + SymFunc({(1,): 1})
        assert sorted(f.degrees()) == [1, 2]

    def test_scalar_and_subtraction(self):
        f = 3 * SymFunc({(2,): 1}) - SymFunc({(2,): 1})
        assert f.terms == {(2,): Fraction(2)}
        assert (f - f).is_zero()

    def test_rational_text(self):
        assert format_rational(Fraction(4)) == "4"
        assert format_rational(Fraction(-7, 3)) == "-7/3"
        assert format_rational(4) == "4"


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
        st.one_of(st.integers(min_value=-3, max_value=3), st.fractions(max_denominator=5)),
        partitions,
    )
    def test_results_are_clean(self, f, g, d, scalar, lam):
        for result in (
            multiply(f, g),
            power_d(f, d),
            psi_d(f, d),
            phi_d_power(f, d),
            schur_to_power(lam),
            f + g,
            f - g,
            scalar * f,
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
        for n in range(1, 6):
            # s_(n) is the trivial character: every class value is 1.
            assert schur_to_power((n,)).terms == {mu: Fraction(1, centralizer_order(mu)) for mu in partitions_of(n)}

    def test_power_to_schur_examples(self):
        assert power_to_schur(SymFunc({(1, 1): 1})) == {(2,): Fraction(1), (1, 1): Fraction(1)}
        assert power_to_schur(SymFunc({(2,): 1})) == {(2,): Fraction(1), (1, 1): Fraction(-1)}

    def test_power_to_schur_keys_in_sort_key_order(self):
        f = SymFunc({(1, 1, 1): 1}) + SymFunc({(2,): 1}) + SymFunc({(): 1}) + SymFunc({(3, 1): 1})
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
        f = schur_to_power((3, 1)) + 2 * SymFunc({(2, 2): 1}) + SymFunc({(1,): 1}) + SymFunc({(): 1})
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
        prod = multiply(SymFunc({(2, 1): 1}), SymFunc({(3, 1): 1}))
        assert prod.terms == {(3, 2, 1, 1): Fraction(1)}

    def test_pieri_smallest_case(self):
        prod = multiply(schur_to_power((1,)), schur_to_power((1,)))
        assert power_to_schur(prod) == {(2,): Fraction(1), (1, 1): Fraction(1)}

    def test_unit(self):
        one = SymFunc({(): 1})
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
        out = power_d(SymFunc({mu: 1}), d)
        pooled = tuple(sorted(mu * d, reverse=True))
        assert out.terms == {pooled: Fraction(1)}

    def test_power_one_is_identity(self):
        f = schur_to_power((2, 1))
        assert power_d(f, 1).terms == f.terms

    @pytest.mark.parametrize("d", [2.0, True])
    def test_power_d_rejects_a_non_int_exponent(self, d):
        with pytest.raises(ValueError, match=f"exponent must be an integer, got {d!r}"):
            power_d(schur_to_power((2, 1)), d)


class TestHallInner:
    def test_power_sum_orthogonality(self):
        assert hall_inner(SymFunc({(2, 1): 1}), SymFunc({(2, 1): 1})) == 2
        assert hall_inner(SymFunc({(2, 1): 1}), SymFunc({(3,): 1})) == 0

    def test_schur_orthonormality(self):
        for n in range(7):
            for lam in partitions_of(n):
                for mu in partitions_of(n):
                    value = hall_inner(schur_to_power(lam), schur_to_power(mu))
                    assert value == (1 if lam == mu else 0)

    def test_integral_pairings_are_ints(self):
        # <s_lam, p_mu> is a character value; <s_lam, s_mu> sums remainders
        # (for s_2 with itself, 1/2 + 1/2) to an integer.
        for n in range(7):
            for lam in partitions_of(n):
                s_lam = schur_to_power(lam)
                for mu in partitions_of(n):
                    assert type(hall_inner(s_lam, SymFunc._of({mu: centralizer_order(mu)}))) is int
                    assert type(hall_inner(s_lam, schur_to_power(mu))) is int

    def test_nonintegral_pairing_is_a_fraction(self):
        value = hall_inner(SymFunc({(2,): 1}), SymFunc({(2,): Fraction(1, 4)}))
        assert (type(value), value) == (Fraction, Fraction(1, 2))
        value = hall_inner(SymFunc({(2,): 1}) + SymFunc({(1, 1): 1}), SymFunc({(2,): Fraction(1, 4)}))
        assert (type(value), value) == (Fraction, Fraction(1, 2))

    def test_mixed_degrees_pair_componentwise(self):
        f = SymFunc({(1,): 1}) + SymFunc({(2,): 1})
        assert hall_inner(f, f) == 1 + 2


class TestPsiPhi:
    def test_psi_examples(self):
        assert psi_d(SymFunc({(2, 1): 1}), 2).terms == {(4, 2): Fraction(1)}
        f = schur_to_power((2, 1))
        assert psi_d(f, 1).terms == f.terms

    @given(small_symfuncs, small_symfuncs, st.integers(min_value=2, max_value=3))
    @settings(max_examples=30, deadline=None)
    def test_psi_is_a_ring_map(self, f, g, d):
        assert psi_d(multiply(f, g), d).terms == multiply(psi_d(f, d), psi_d(g, d)).terms

    def test_phi_power_examples(self):
        assert phi_d_power(SymFunc({(4, 2): 1}), 2).terms == {(2, 1): Fraction(4)}
        assert phi_d_power(SymFunc({(3,): 1}), 2).is_zero()
        f = schur_to_power((2, 1))
        assert phi_d_power(f, 1).terms == f.terms

    @pytest.mark.parametrize("d", [2.0, True])
    def test_psi_rejects_a_non_int_power(self, d):
        # Unchecked, 2.0 gives float keys and values: {(6.0,): -2.0, (2.0, 2.0, 2.0): 16.0}.
        with pytest.raises(ValueError, match=f"substitution power must be an integer, got {d!r}"):
            psi_d(schur_to_power((2, 1)), d)

    @pytest.mark.parametrize("d", [2.0, True])
    def test_phi_power_rejects_a_non_int_power(self, d):
        with pytest.raises(ValueError, match=f"substitution power must be an integer, got {d!r}"):
            phi_d_power(SymFunc({(4, 2): 1}), d)

    def test_phi_kills_keys_with_nondivisible_parts(self):
        # p_1 * p_1 is p at (1,1); the adjoint pairs it against p at 2*mu,
        # whose parts are all even, so the image is zero.
        f = multiply(SymFunc({(1,): 1}), SymFunc({(1,): 1}))
        assert phi_d_power(f, 2).is_zero()
        assert phi_d_power(SymFunc({(2,): 1}), 2).terms == {(1,): Fraction(2)}

    def test_adjointness_on_basis_elements(self):
        for d in (2, 3):
            for m in range(6):
                for mu in partitions_of(m):
                    for nu in partitions_of(d * m):
                        lhs = hall_inner(psi_d(SymFunc({mu: 1}), d), SymFunc({nu: 1}))
                        rhs = hall_inner(SymFunc({mu: 1}), phi_d_power(SymFunc({nu: 1}), d))
                        assert lhs == rhs, (mu, nu, d)

    def test_adjointness_on_random_combinations(self):
        rng = random.Random(20260819)
        for _ in range(100):
            d = rng.choice([2, 3])
            degree = rng.randint(0, 5)
            f = random_homogeneous(rng, degree)
            g = random_homogeneous(rng, d * degree)
            assert hall_inner(psi_d(f, d), g) == hall_inner(f, phi_d_power(g, d))


class TestSchurPowerMemo:
    """symfunc._schur_power keeps power_d(schur_to_power(lam), d) per (lam, d)
    and cache, for the plethystic route of theorem 1 and thm2-div."""

    @pytest.fixture
    def products(self, monkeypatch):
        calls, power = [], plethy.symfunc.power_d

        def counted(f, d):
            calls.append(d)
            return power(f, d)

        monkeypatch.setattr(plethy.symfunc, "power_d", counted)
        return calls

    def test_each_power_is_computed_once_per_cache(self, products):
        cache = CharCache()
        run_verify_all(cache=cache)
        # Theorem 1 at n <= 5 and d in {2, 3}; thm2-div (n <= 4) only repeats them.
        # The memo holds the Schur functions themselves too, as d = 1.
        assert len(products) == sum(d >= 2 for _, d in cache._powers) == 36
        run_verify_all(cache=cache)
        assert len(products) == 36
        run_verify_all(cache=CharCache())
        assert len(products) == 72

    def test_memoized_power_is_the_product(self):
        cache = CharCache()
        for n in range(6):
            for lam in partitions_of(n):
                for d in (1, 2, 3):
                    power = plethy.symfunc._schur_power(lam, d, cache)
                    assert power == power_d(schur_to_power(lam), d)
                    assert plethy.symfunc._schur_power(lam, d, cache) is power

    def test_schur_to_power_copies_the_power_at_d_1(self):
        cache = CharCache()
        for n in range(6):
            for lam in partitions_of(n):
                f = schur_to_power(lam, cache)
                memo = plethy.symfunc._schur_power(lam, 1, cache)
                assert f.values == memo.values and f.values is not memo.values

    def test_len_and_cache_file_do_not_see_the_memo(self, tmp_path):
        path = tmp_path / "mn.txt"
        cache = CharCache(path)
        run_verify_all(cache=cache)
        character_table(8, cache=cache)
        cache.flush()
        written, size = path.read_bytes(), len(cache)
        assert hashlib.sha256(written).hexdigest() == VERIFY_ALL_TABLE_8_CACHE_SHA256
        assert written.count(b"\n") == VERIFY_ALL_TABLE_8_CACHE_ENTRIES
        # Powers the sweeps never asked for: rows already read, so no new entry.
        for lam in partitions_of(5):
            plethy.symfunc._schur_power(lam, 4, cache)
        cache.flush()
        assert (path.read_bytes(), len(cache)) == (written, size)

    def test_engine_reads_leave_the_memo_unchanged(self):
        cache = CharCache()
        run_verify_all(cache=cache)
        cold = {key: (power, power.values, dict(power.values)) for key, power in cache._powers.items()}
        run_verify_all(cache=cache)
        assert cache._powers.keys() == cold.keys()
        fresh = CharCache()
        for (lam, d), (power, values, copy) in cold.items():
            assert cache._powers[lam, d] is power and power.values is values
            assert values == copy == plethy.symfunc._schur_power(lam, d, fresh).values

    def test_keys_are_checked_before_the_memo_lookup(self):
        # (2, True) and (2.0, 1) hash equal to (2, 1), so a memo hit would answer them.
        cache = CharCache()
        schur_to_power((2, 1), cache)
        keys = set(cache._powers)
        for call in (
            lambda: to_power({(2, True): 1}, cache),
            lambda: to_power({(2.0, 1): 1}, cache),
            lambda: schur_to_power((2, True), cache),
        ):
            with pytest.raises(PartitionError):
                call()
        assert set(cache._powers) == keys

    def test_the_engine_reaches_schur_functions_through_the_memo(self):
        """Outside _schur_power (at d >= 2), no module of plethy calls the checked
        copy schur_to_power: the engine reads _schur_power(lam, 1) in place."""
        callers = []

        def visit(node, module, function):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.Call) and "schur_to_power" in (
                    getattr(child.func, "id", None),
                    getattr(child.func, "attr", None),
                ):
                    callers.append((module, function))
                visit(child, module, child.name if isinstance(child, ast.FunctionDef) else function)

        package = os.path.dirname(plethy.symfunc.__file__)
        for name in sorted(os.listdir(package)):
            if name.endswith(".py"):
                with open(os.path.join(package, name), encoding="utf-8") as handle:
                    visit(ast.parse(handle.read()), name[:-3], None)
        assert callers == [("symfunc", "_schur_power")]

    @pytest.mark.parametrize("d", [2.0, True])
    def test_non_int_d_is_rejected_once_the_memo_is_filled(self, d):
        # 2.0 and True hash equal to 2 and 1, so a memo hit would answer them.
        cache = CharCache()
        for k in (1, 2):
            boxplus_classfunction((2, 1), k, ROUTE_PLETHYSTIC, cache)
        powers = dict(cache._powers)
        with pytest.raises(ValueError, match=f"grid factor must be an integer, got {d!r}"):
            boxplus_classfunction((2, 1), d, ROUTE_PLETHYSTIC, cache)
        with pytest.raises(ValueError, match=f"d must be an integer, got {d!r}"):
            verify_theorem2_div(3, d, cache=cache)
        assert cache._powers == powers


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
                row = {mu: mn_value(lam, mu) for mu in partitions_of(n)}
                f = schur_to_power(lam)
                assert f.values == {mu: value for mu, value in row.items() if value}
                assert all(type(value) is int for value in f.values.values())
                assert f.terms == {mu: Fraction(value, centralizer_order(mu)) for mu, value in row.items() if value}

    def test_constructor_takes_power_sum_coefficients(self):
        f = SymFunc({(2, 2): Fraction(1, 8), (1,): 3})
        assert f.values == {(2, 2): 1, (1,): 3}
        assert f.terms == {(2, 2): Fraction(1, 8), (1,): Fraction(3)}
        assert f != SymFunc({(2, 2): 1, (1,): 3})
        for n in range(1, 6):
            # p_n is the class function with the value n at the n-cycles only.
            assert SymFunc({(n,): 1}).values == {(n,): n}


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

    @settings(max_examples=80, deadline=None)
    @given(symfuncs_to_6, symfuncs_to_6)
    def test_hall_inner_is_symmetric_and_an_int_when_integral(self, f, g):
        for h in (g, f, f + g):
            value = hall_inner(f, h)
            assert hall_inner(h, f) == value
            assert type(value) is (int if value.denominator == 1 else Fraction)

    @settings(max_examples=80, deadline=None)
    @given(schur_expansions_to_6)
    def test_to_power(self, schur):
        assert to_power(schur).terms == oracles.fraction_to_power(schur)

    @settings(max_examples=60, deadline=None)
    @given(symfuncs_to_6)
    def test_power_to_schur(self, f):
        expected = oracles.fraction_power_to_schur(f.terms)
        result = power_to_schur(f)
        assert list(result.items()) == list(expected.items())
        assert all(type(coeff) is (int if coeff.denominator == 1 else Fraction) for coeff in result.values())

    @settings(max_examples=200, deadline=None)
    @given(mixed_degree_symfuncs, st.integers(min_value=1, max_value=6))
    @example(SymFunc({(): 1, (6, 3): 2, (4, 2, 2): -1, (5,): 1}), 2)
    def test_phi_d_power_gcd_filter(self, f, d):
        assert phi_d_power(f, d).values == oracles.any_part_phi_d_power(f.values, d)

    @settings(max_examples=80, deadline=None)
    @given(symfuncs_to_6, st.integers(min_value=1, max_value=3))
    def test_psi_d_and_phi_d_power(self, f, d):
        assert psi_d(f, d).terms == oracles.fraction_psi_d(f.terms, d)
        assert phi_d_power(f, d).terms == oracles.fraction_phi_d_power(f.terms, d)
        image = psi_d(f, d)
        assert phi_d_power(image, d).terms == oracles.fraction_phi_d_power(image.terms, d)
