import hashlib
import json
import math
from fractions import Fraction

import pytest

import oracles
from plethy import characters as characters_mod
from plethy import symfunc
from plethy import verify as verify_mod
from plethy import (
    CharCache,
    Config,
    SymFunc,
    VerificationReport,
    boxplus,
    centralizer_order,
    f_dim,
    format_partition,
    hall_inner,
    hall_summation_oracle,
    mn_value,
    orbit_divisibility_check,
    partitions_of,
    run_verify_all,
    scale,
    verify_hall_oracle,
    verify_littlewood,
    verify_theorem1,
    verify_theorem1_scaled,
    verify_theorem2_div,
    verify_theorem2_vanish,
)
from plethy.partitions import _scale
from plethy.verify import _ordered_tuples
from test_cli import VERIFY_ALL_SHA256


class TestReportType:
    def test_json_key_order(self):
        report = VerificationReport("Thm1", {"n": 1, "d": 2}, 3, [], 17)
        data = report.to_json_dict()
        assert list(data) == ["theorem", "params", "cases", "failures", "elapsed_ms", "status"]
        assert data["status"] == "PASS"
        assert data["elapsed_ms"] == 17

    def test_status_tracks_failures(self):
        bad = VerificationReport("Thm1", {}, 1, [{"relation": "x = y"}])
        assert bad.status == "FAIL"
        assert bad.to_json_dict()["status"] == "FAIL"
        assert VerificationReport("Thm1", {}, 1).status == "PASS"

    def test_without_timing_zeroes_elapsed_only(self):
        report = VerificationReport("Thm2Div", {"n": 1}, 5, [], 99)
        stripped = report.without_timing()
        assert stripped.elapsed_ms == 0
        assert (stripped.theorem, stripped.params, stripped.cases_checked) == (
            "Thm2Div", {"n": 1}, 5,
        )


class TestHookDimension:
    def test_examples(self):
        assert f_dim(()) == 1
        assert f_dim((2, 1)) == 2
        assert f_dim((2, 2)) == 2
        assert f_dim((3, 2)) == 5
        for n in range(1, 9):
            assert f_dim((n,)) == 1
            assert f_dim((1,) * n) == 1

    def test_matches_tableau_count(self):
        for n in range(8):
            for lam in partitions_of(n):
                assert f_dim(lam) == oracles.syt_count(lam), lam

    def test_squares_sum_to_group_order(self):
        for n in range(1, 8):
            assert sum(f_dim(lam) ** 2 for lam in partitions_of(n)) == math.factorial(n)


class TestTheorem1Sweep:
    def test_smallest_case(self):
        report = verify_theorem1(1, 2)
        assert report.theorem == "Thm1"
        assert report.params == {"n": 1, "d": 2}
        assert report.cases_checked == 1
        assert report.status == "PASS"

    def test_small_grid_passes(self):
        for n in range(1, 4):
            for d in (2, 3):
                report = verify_theorem1(n, d)
                assert report.status == "PASS", (n, d, report.failures)
                assert report.cases_checked == len(partitions_of(n))

    def test_limit_errors_name_the_limit(self):
        with pytest.raises(ValueError, match="n = 9 exceeds the limit 5"):
            verify_theorem1(9, 2)
        with pytest.raises(ValueError, match="d = 4 exceeds the limit 3"):
            verify_theorem1(2, 4)
        with pytest.raises(ValueError, match="n = 3 exceeds the limit 2"):
            verify_theorem1(3, 2, max_n=2)
        with pytest.raises(ValueError, match="n must be positive"):
            verify_theorem1(0, 2)

    @pytest.mark.parametrize(
        "n, d, message",
        [(2, 2.0, "d must be an integer, got 2.0"), (True, 2, "n must be an integer, got True")],
    )
    def test_non_int_limits_rejected(self, n, d, message):
        # Unchecked, 2.0 fails deep in the sweep with a TypeError.
        with pytest.raises(ValueError, match=message):
            verify_theorem1(n, d)

    @pytest.mark.parametrize("max_n", ["5", 5.0, None])
    def test_non_int_limit_rejected(self, max_n):
        with pytest.raises(ValueError, match=f"^the limit on n must be an integer, got {max_n!r}$"):
            verify_theorem1(2, 2, max_n=max_n)

    def test_scaled_sweep_passes(self):
        for n in range(1, 4):
            for d in (2, 3):
                report = verify_theorem1_scaled(n, d)
                assert report.theorem == "Thm1Scaled"
                assert report.status == "PASS", (n, d, report.failures)

    @pytest.mark.parametrize("mults, extra", [({(1,): Fraction(1, 2)}, "1/2"), ({}, "0")])
    def test_resynthesis_failure_reports_both_values(self, monkeypatch, mults, extra):
        # Level 1: the only class function value is chi^(2) at (2), which is 1.
        monkeypatch.setattr(verify_mod, "decompose", lambda phi, cache=None: mults)
        failures = verify_theorem1_scaled(1, 2).failures
        assert failures[-1] == {
            "lambda": "1",
            "mu": "1",
            "relation": "sum of multiplicities times irreducibles = class function",
            "resynthesized": extra,
            "value": "1",
        }
        assert len(failures) == len(mults) + 1


class TestLittlewoodSweep:
    def test_counts_all_shapes_including_empty(self):
        report = verify_littlewood(3, 2)
        assert report.theorem == "Littlewood"
        assert report.cases_checked == sum(len(partitions_of(m)) for m in range(4))
        assert report.status == "PASS"

    def test_larger_d(self):
        assert verify_littlewood(5, 3).status == "PASS"

    def test_failure_lists_the_difference_in_power_sums(self, monkeypatch):
        # A wrong abacus route giving p_1/3 for every shape; the power-basis
        # route gives 1, 0, p_1 and -p_1 for (), (1), (2) and (1, 1).
        monkeypatch.setattr(verify_mod.symfunc, "phi_d_littlewood", lambda nu, d, cache=None: SymFunc({(1,): Fraction(1, 3)}))
        report = verify_littlewood(2, 2)
        relation = "abacus route = power-basis route"
        assert report.failures == [
            {"nu": "", "d": 2, "relation": relation, "difference_terms": {"": "-1", "1": "1/3"}},
            {"nu": "1", "d": 2, "relation": relation, "difference_terms": {"1": "1/3"}},
            {"nu": "2", "d": 2, "relation": relation, "difference_terms": {"1": "-2/3"}},
            {"nu": "1,1", "d": 2, "relation": relation, "difference_terms": {"1": "4/3"}},
        ]

    def test_limits(self):
        with pytest.raises(ValueError, match="max_size = 9 exceeds the limit 8"):
            verify_littlewood(9, 2)
        with pytest.raises(ValueError, match="d must be positive"):
            verify_littlewood(3, 0)
        with pytest.raises(ValueError, match="d = 4 exceeds the limit 3"):
            verify_littlewood(3, 4)
        assert verify_littlewood(2, 4, max_d=4).status == "PASS"

    def test_non_int_limit_rejected(self):
        with pytest.raises(ValueError, match="^the limit on max_size must be an integer, got 2.0$"):
            verify_littlewood(2, 2, bound=2.0)
        with pytest.raises(ValueError, match="^the limit on d must be an integer, got '3'$"):
            verify_littlewood(2, 2, max_d="3")


class TestTheorem2Div:
    def test_frozen_values(self):
        # boxplus((2,), 2) = (4, 4); the doubled class of (1, 1, 1, 1) is
        # (2, 2, 2, 2) and the character value there is 6, divisible by 2!.
        assert mn_value((4, 4), (2, 2, 2, 2)) == 6
        assert hall_summation_oracle((2,), (1, 1, 1, 1), 2) == Fraction(6)
        assert mn_value(boxplus((1,), 2), (2, 2)) == 2
        assert hall_summation_oracle((1,), (1, 1), 2) == Fraction(2)

    def test_sweep_counts_and_passes(self):
        report = verify_theorem2_div(1, 2)
        assert report.cases_checked == len(partitions_of(1)) * len(partitions_of(2))
        assert report.status == "PASS"
        report = verify_theorem2_div(2, 2)
        assert report.cases_checked == len(partitions_of(2)) * len(partitions_of(4))
        assert report.status == "PASS"

    def test_limits(self):
        with pytest.raises(ValueError, match="n = 5 exceeds the limit 4"):
            verify_theorem2_div(5, 2)

    def test_pairing_read_is_the_hall_pairing(self):
        # The sweep reads the pairing of (s_lam)^d with p_mu as the class value
        # F_mu; hall_inner with the one-term p_mu is the pairing it replaced.
        cache = CharCache()
        for n, d in verify_mod.sweep_table()["thm2-div"].grid:
            for lam in partitions_of(n):
                power = symfunc._schur_power(lam, d, cache)
                for mu in partitions_of(d * n):
                    pairing = hall_inner(power, SymFunc._of({mu: centralizer_order(mu)}))
                    assert power.values.get(mu, 0) == pairing, (lam, mu, d)


class TestTheorem2Vanish:
    def test_single_box(self):
        # boxplus((1,), 2) = (2, 2) and the value at the 4-scaled class of
        # (1,) vanishes.
        assert mn_value((2, 2), (4,)) == 0
        report = verify_theorem2_vanish(1, 2)
        assert report.cases_checked == 1
        assert report.status == "PASS"

    def test_sweep(self):
        for n, d in ((1, 2), (3, 2), (1, 3), (2, 3), (4, 3)):
            report = verify_theorem2_vanish(n, d)
            assert report.status == "PASS", (n, d, report.failures)
            assert report.cases_checked == len(partitions_of(n)) ** 2

    def test_divisible_n_rejected(self):
        with pytest.raises(ValueError, match="hypothesis d does not divide n violated"):
            verify_theorem2_vanish(2, 2)
        with pytest.raises(ValueError, match="d = 3, n = 3"):
            verify_theorem2_vanish(3, 3)


class TestHallSummation:
    def test_oversized_part_gives_empty_sum(self):
        assert hall_summation_oracle((1,), (2,), 2) == 0
        assert mn_value(boxplus((1,), 2), scale((2,), 2)) == 0

    def test_d_one_reduces_to_single_character(self):
        for lam in partitions_of(3):
            for mu in partitions_of(3):
                assert hall_summation_oracle(lam, mu, 1) == mn_value(lam, mu)

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError, match="size mismatch"):
            hall_summation_oracle((1,), (1, 1, 1), 2)

    @pytest.mark.parametrize("oracle", [hall_summation_oracle, orbit_divisibility_check])
    @pytest.mark.parametrize("d", [0, -1])
    def test_nonpositive_d_rejected(self, oracle, d):
        with pytest.raises(ValueError, match=f"d must be positive, got {d}"):
            oracle((), (), d)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_empty_lambda_sums_to_one(self, d):
        # The single empty tuple: chi^() at the empty class is 1 for every d.
        assert hall_summation_oracle((), (), d) == 1

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_divisibility_check_rejects_empty_lambda(self, d):
        with pytest.raises(ValueError, match=r"needs \|lambda\| >= 1, got lambda = \(\)"):
            orbit_divisibility_check((), (), d)

    def test_agrees_with_ribbon_stripping(self):
        for n in (1, 2, 3):
            for d in (2, 3):
                for lam in partitions_of(n):
                    big = boxplus(lam, d)
                    for mu in partitions_of(d * n):
                        assert hall_summation_oracle(lam, mu, d) == mn_value(big, scale(mu, d))

    def test_values_are_ints(self):
        for n in (1, 2, 3):
            for lam in partitions_of(n):
                for mu in partitions_of(2 * n):
                    assert type(hall_summation_oracle(lam, mu, 2)) is int, (lam, mu)
        assert type(hall_summation_oracle((), (), 3)) is int

    @pytest.mark.parametrize("oracle", [hall_summation_oracle, orbit_divisibility_check])
    def test_lambda_is_checked_once(self, oracle, monkeypatch):
        import plethy

        seen = []
        check = plethy.partitions.check_partition

        def counting(parts):
            seen.append(tuple(parts))
            return check(parts)

        for module in (plethy.partitions, plethy.mn, plethy.verify):
            monkeypatch.setattr(module, "check_partition", counting)
        oracle((2, 1), (2, 2, 1, 1), 2)
        assert seen.count((2, 1)) == 1
        assert seen.count((2, 2, 1, 1)) == 1


def splits_tuples(mu, n, d):
    """Ordered d-tuples of partitions of n with multiset union mu, built from oracles.splits."""
    if d == 0:
        return [] if mu else [()]
    return [(piece,) + tail for piece, rest in oracles.splits(mu, n) for tail in splits_tuples(rest, n, d - 1)]


class TestOrderedTuples:
    def test_matches_splits_enumeration(self):
        for n in range(5):
            for d in range(1, 4):
                for mu in partitions_of(d * n):
                    assert _ordered_tuples(mu, n, d) == splits_tuples(mu, n, d), (mu, n, d)


class TestOrbitDivisibility:
    def test_five_fold_orbit(self):
        # With lambda of 3 and mu = (3, 3, 2, 2, 1, 1, 1, 1, 1), the only
        # multiset of five partitions of 3 with that union is two copies of
        # (3), two of (2, 1) and one of (1, 1, 1), so there is a single
        # orbit of size 5!/(2! 2! 1!) = 30.
        mu = (3, 3, 2, 2, 1, 1, 1, 1, 1)
        for lam in partitions_of(3):
            report = orbit_divisibility_check(lam, mu, 5)
            assert report.cases_checked == 1
            assert report.status == "PASS", (lam, report.failures)
        assert hall_summation_oracle((3,), mu, 5) == Fraction(30 * 80)

    def test_constant_tuple_orbit(self):
        report = orbit_divisibility_check((2,), (1, 1, 1, 1), 2)
        assert report.cases_checked == 1
        assert report.status == "PASS"

    def test_two_piece_orbit(self):
        report = orbit_divisibility_check((2,), (2, 1, 1), 2)
        assert report.theorem == "HallOracle"
        assert report.params == {"lambda": "2", "mu": "2,1,1", "d": 2}
        assert report.status == "PASS"

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError, match="size mismatch"):
            orbit_divisibility_check((2,), (2, 1), 2)

    def test_orbit_pass_forces_divisibility(self):
        # When every orbit contribution is divisible by d!, the total is too;
        # confirm on a grid by pairing each orbit report with the character
        # value it bounds.
        for lam in partitions_of(2):
            for mu in partitions_of(4):
                report = orbit_divisibility_check(lam, mu, 2)
                assert report.status == "PASS"
                assert mn_value(boxplus(lam, 2), scale(mu, 2)) % 2 == 0


def pinned(failures):
    """Failures as key-value lists, so the key order (the JSON order) is pinned too."""
    return [list(failure.items()) for failure in failures]


class TestOrbitFailureOutput:
    """Each orbit relation, forced to fail, reports its exact text.  For
    lambda = (2) and mu = (2, 1, 1) at d = 2 the one orbit is {(2), (1, 1)},
    walked twice, with centralizer ratio z_(2,1,1) / (z_(2) z_(1,1)) = 4/4."""

    ORBIT = ("orbit", ["2", "1,1"])

    def test_orbit_size(self, monkeypatch):
        # One tuple walked a third time: the size check and, with it, the
        # contribution check fail.
        def walk(mu, n, d, _walk=_ordered_tuples):
            tuples = _walk(mu, n, d)
            return tuples + tuples[:1] if d == 2 else tuples

        monkeypatch.setattr(verify_mod, "_ordered_tuples", walk)
        report = orbit_divisibility_check((2,), (2, 1, 1), 2)
        assert (report.status, report.cases_checked) == ("FAIL", 1)
        assert pinned(report.failures) == [
            [self.ORBIT, ("relation", "orbit size = multinomial of sigma"), ("size", 3), ("expected", 2)],
            [self.ORBIT, ("relation", "orbit contribution divisible by 2"), ("contribution", "3")],
        ]
        assert hall_summation_oracle((2,), (2, 1, 1), 2) == 3

    def test_centralizer_ratio(self, monkeypatch):
        # z_(2,1,1) read as 14 makes the ratio 7/2 and the contribution 2 * 7/2 = 7.
        real = verify_mod.centralizer_order
        monkeypatch.setattr(verify_mod, "centralizer_order", lambda mu: 14 if mu == (2, 1, 1) else real(mu))
        report = orbit_divisibility_check((2,), (2, 1, 1), 2)
        assert pinned(report.failures) == [
            [
                self.ORBIT,
                ("relation", "centralizer ratio is an integer divisible by the sigma factorials"),
                ("ratio", "7/2"),
                ("sigma", "1,1"),
            ],
            [self.ORBIT, ("relation", "orbit contribution divisible by 2"), ("contribution", "7")],
        ]
        assert hall_summation_oracle((2,), (2, 1, 1), 2) == 7

    def test_integral_ratio_not_divisible_by_sigma_factorials(self, monkeypatch):
        # mu = (1, 1, 1, 1): the one orbit is {(1, 1), (1, 1)} with sigma = (2);
        # z_mu read as 4 makes the ratio 1, which 2! does not divide.
        real = verify_mod.centralizer_order
        monkeypatch.setattr(verify_mod, "centralizer_order", lambda mu: 4 if mu == (1, 1, 1, 1) else real(mu))
        report = orbit_divisibility_check((2,), (1, 1, 1, 1), 2)
        orbit = ("orbit", ["1,1", "1,1"])
        assert pinned(report.failures) == [
            [
                orbit,
                ("relation", "centralizer ratio is an integer divisible by the sigma factorials"),
                ("ratio", "1"),
                ("sigma", "2"),
            ],
            [orbit, ("relation", "orbit contribution divisible by 2"), ("contribution", "1")],
        ]

    def test_contribution(self, monkeypatch):
        # A character value of 1/3 at (2) leaves size and ratio intact and
        # makes the contribution 2 * 1 * 1/3 * 1 = 2/3.
        row = verify_mod._row
        monkeypatch.setattr(verify_mod, "_row", lambda lam, classes, cache: {**row(lam, classes, cache), (2,): Fraction(1, 3)})
        report = orbit_divisibility_check((2,), (2, 1, 1), 2)
        assert pinned(report.failures) == [
            [self.ORBIT, ("relation", "orbit contribution divisible by 2"), ("contribution", "2/3")],
        ]
        assert hall_summation_oracle((2,), (2, 1, 1), 2) == Fraction(2, 3)

    def test_sweep_tags_orbit_failures_with_lambda_and_mu(self, monkeypatch):
        real = verify_mod.centralizer_order
        monkeypatch.setattr(verify_mod, "centralizer_order", lambda mu: 14 if mu == (2, 1, 1) else real(mu))
        report = verify_hall_oracle(2, 2)
        expected = []
        for lam, sign in (("2", ""), ("1,1", "-")):
            case = [("lambda", lam), ("mu", "2,1,1")]
            expected += [
                case + [("relation", "tuple summation = ribbon stripping"), ("summation", sign + "7"), ("stripping", sign + "2")],
                [
                    self.ORBIT,
                    ("relation", "centralizer ratio is an integer divisible by the sigma factorials"),
                    ("ratio", "7/2"),
                    ("sigma", "1,1"),
                ] + case,
                [self.ORBIT, ("relation", "orbit contribution divisible by 2"), ("contribution", sign + "7")] + case,
            ]
        assert pinned(report.failures) == expected
        assert report.cases_checked == len(partitions_of(2)) * len(partitions_of(4))


def walk_once_more(monkeypatch):
    def walk(mu, n, d, _walk=_ordered_tuples):
        tuples = _walk(mu, n, d)
        return tuples + tuples[:1] if d == 2 else tuples

    monkeypatch.setattr(verify_mod, "_ordered_tuples", walk)


def walk_twice(monkeypatch):
    # Every orbit walked twice over: each fails its size check, so the records show the orbit order.
    monkeypatch.setattr(verify_mod, "_ordered_tuples", lambda mu, n, d, _walk=_ordered_tuples: _walk(mu, n, d) * 2)


def centralizer_order_at(mu, z):
    def patch(monkeypatch):
        real = verify_mod.centralizer_order
        monkeypatch.setattr(verify_mod, "centralizer_order", lambda nu: z if nu == mu else real(nu))

    return patch


def third_at_2(monkeypatch):
    def row(lam, classes, cache, _row=verify_mod._row):
        return {**_row(lam, classes, cache), (2,): Fraction(1, 3)}

    monkeypatch.setattr(verify_mod, "_row", row)


class TestOracleSplit:
    """_orbits builds what does not read lam once per mu and _oracle reads the
    row: together they give the total and the failure records, in order and
    key order, of the one-loop version kept in oracles, on every lam of n
    and mu of d*n for n <= 3 and d <= 3 and for (n, d) = (4, 2), unbroken,
    under the walk, centralizer and row mutants of TestOrbitFailureOutput,
    and with every orbit walked twice."""

    # n <= 3 leaves one orbit per mu; at (4, 2) mu = (2, 2, 1, 1, 1, 1) has two, so the orbit order shows.
    GRID = [(n, d) for n in range(4) for d in range(1, 4)] + [(4, 2)]
    CASES = [(lam, mu, d) for n, d in GRID for lam in partitions_of(n) for mu in partitions_of(d * n)]

    @pytest.mark.parametrize(
        "mutant",
        [
            None,
            walk_once_more,
            walk_twice,
            centralizer_order_at((2, 1, 1), 14),
            centralizer_order_at((1, 1, 1, 1), 4),
            third_at_2,
        ],
        ids=["none", "walk", "walk-twice", "ratio", "integral-ratio", "row"],
    )
    def test_matches_the_one_loop_oracle(self, mutant, monkeypatch):
        if mutant:
            mutant(monkeypatch)
        failing = 0
        for lam, mu, d in self.CASES:
            n = sum(lam)
            row = verify_mod._row(lam, partitions_of(n), None)
            total, failures = verify_mod._oracle(row, verify_mod._orbits(mu, n, d), d)
            orbits = oracles.one_loop_orbits(verify_mod._ordered_tuples(mu, n, d))
            one_total, one_failures = oracles.one_loop_oracle(row, mu, orbits, d, verify_mod.centralizer_order)
            assert (type(total), total, pinned(failures)) == (type(one_total), one_total, pinned(one_failures))
            failing += bool(failures) and n > 0  # lam = () contributes 1, which d! need not divide
        assert bool(failing) == bool(mutant)


def count_walks(monkeypatch):
    """The d of every _ordered_tuples call.  The recursion calls itself with
    d - 1, so at d = 2 only the d = 2 calls are walks."""
    walks = []

    def counting(mu, n, d, _walk=_ordered_tuples):
        walks.append(d)
        return _walk(mu, n, d)

    monkeypatch.setattr(verify_mod, "_ordered_tuples", counting)
    return walks


class TestHallOracleSweep:
    def test_small_sweeps_pass(self):
        for n in (1, 2):
            for d in (2, 3):
                report = verify_hall_oracle(n, d)
                assert report.status == "PASS", (n, d, report.failures)
                assert report.cases_checked == len(partitions_of(n)) * len(partitions_of(d * n))

    def test_one_tuple_walk_per_mu(self, monkeypatch):
        # The orbits of mu do not depend on lambda, so every lambda shares one walk.
        walks = count_walks(monkeypatch)
        assert verify_hall_oracle(2, 2).status == "PASS"
        assert walks.count(2) == len(partitions_of(4))

    def test_second_sweep_walks_none(self, monkeypatch):
        # The orbits depend on neither lambda nor the cache: a second sweep in the process walks nothing.
        assert verify_hall_oracle(2, 2).status == "PASS"
        walks = count_walks(monkeypatch)
        assert verify_hall_oracle(2, 2, cache=CharCache()).status == "PASS"
        assert walks == []

    @pytest.mark.parametrize("oracle", [hall_summation_oracle, orbit_divisibility_check])
    def test_public_oracles_walk_once_per_call(self, oracle, monkeypatch):
        # At most once per (mu, n, d) per process: calls on the same mu share one walk.
        walks = count_walks(monkeypatch)
        for lam in partitions_of(2):
            oracle(lam, (2, 1, 1), 2)
        assert walks.count(2) == 1

    def test_limits(self):
        with pytest.raises(ValueError, match="n = 4 exceeds the limit 3"):
            verify_hall_oracle(4, 2)


class TestProcessMemos:
    """_orbits and characters._power_sums are kept per process: what they
    keep never reaches a caller, and a warm run reports what a cold one does."""

    def test_orbit_records_are_copies(self, monkeypatch):
        centralizer_order_at((2, 1, 1), 14)(monkeypatch)
        for run in (
            lambda: orbit_divisibility_check((2,), (2, 1, 1), 2).failures,
            lambda: verify_hall_oracle(2, 2).failures,
        ):
            failures = run()
            expected = pinned(run())
            for failure in failures:
                failure["relation"] = "edited"
                if "orbit" in failure:
                    failure["orbit"].append("edited")
            assert pinned(run()) == expected
            assert any(record[0][0] == "orbit" for record in expected)

    def test_warm_run_equals_cold_run(self):
        # The fixture of conftest.py empties both memos before the cold run.
        def verify_all_text():
            reports = [report.without_timing() for report in run_verify_all(cache=CharCache())]
            assert {report.status for report in reports} == {"PASS"}
            payload = {"reports": [report.to_json_dict() for report in reports], "status": "PASS"}
            return json.dumps(payload, indent=2) + "\n"

        cold = verify_all_text()
        assert verify_mod._orbits.cache_info().currsize > 0 and characters_mod._power_sums.cache_info().currsize > 0
        assert verify_all_text() == cold
        assert hashlib.sha256(cold.encode()).hexdigest() == VERIFY_ALL_SHA256


class TestBigShapeRows:
    """thm1-scaled, thm2-div, thm2-vanish and the oracle read their big shape's
    values as one unchecked row.  One value of that row off by one must fail
    the sweep with its own relation, at the class that was changed."""

    @pytest.mark.parametrize(
        "module, sweep, n, d, relation, at",
        [
            (characters_mod, verify_theorem1_scaled, 3, 2, "multiplicity is a nonnegative integer", {}),
            (verify_mod, verify_theorem2_div, 2, 2, "ribbon-stripping value = Hall pairing", {"mu": "4"}),
            (verify_mod, verify_theorem2_vanish, 3, 2, "value = 0", {"nu": "3"}),
            (verify_mod, verify_hall_oracle, 2, 2, "tuple summation = ribbon stripping", {"mu": "4"}),
        ],
        ids=["thm1-scaled", "thm2-div", "thm2-vanish", "oracle"],
    )
    def test_one_wrong_value_fails_the_sweep(self, monkeypatch, module, sweep, n, d, relation, at):
        real = module._row

        def off_by_one(lam, classes, cache):
            # Bumps the first class of the big shape's row: the scaled class
            # of the first partition, (n,) or (d*n,).  The oracle's row of
            # lam itself has size n and stays right.
            row = real(lam, classes, cache)
            if sum(lam) > n:
                row[next(iter(row))] += 1
            return row

        monkeypatch.setattr(module, "_row", off_by_one)
        report = sweep(n, d, cache=CharCache())
        own = [failure for failure in report.failures if failure["relation"] == relation]
        assert report.status == "FAIL"
        assert list(dict.fromkeys(failure["lambda"] for failure in own)) == list(map(format_partition, partitions_of(n)))
        assert all(failure.items() >= at.items() for failure in own)


class TestSweepClassLists:
    """thm2-div, thm2-vanish and the oracle read their classes from
    characters._classes, the memo the class functions read, so each list is
    built once per process."""

    def test_one_key_read_by_two_sweeps(self):
        # Both read _classes(_scale, 4, 2): the classes 2*mu of the partitions mu of 4.
        classes = characters_mod._classes
        runs = [lambda: verify_theorem1_scaled(4, 2, cache=CharCache()), lambda: verify_theorem2_div(2, 2, cache=CharCache())]

        def reports(clear):
            result = []
            for run in runs * 2:
                if clear:
                    classes.cache_clear()
                result.append(run().without_timing())
            return result

        kept = reports(clear=False)
        assert reports(clear=True) == kept
        assert [report.status for report in kept] == ["PASS"] * 4
        classes.cache_clear()
        runs[0]()
        hits, misses, _, _ = classes.cache_info()
        runs[1]()
        assert classes.cache_info()[:2] == (hits + 1, misses)

    def test_vanish_classes(self):
        for n, d in verify_mod.sweep_table()["thm2-vanish"].grid:
            assert list(characters_mod._classes(_scale, n, d * d)) == [scale(nu, d * d) for nu in partitions_of(n)]


THM1_GRID = [(1, 2), (1, 3), (2, 2), (2, 3), (3, 2), (3, 3), (4, 2), (4, 3), (5, 2), (5, 3)]
THM2_GRID = [(1, 2), (1, 3), (2, 2), (2, 3), (3, 2), (3, 3), (4, 2), (4, 3)]
# Per sweep of the default Config(): (size_name, grid, limits, default).
DEFAULT_SWEEPS = {
    "thm1": ("n", THM1_GRID, (5, 3), (5, 3)),
    "thm1-scaled": ("n", THM1_GRID, (5, 3), (5, 3)),
    "littlewood": ("max_size", [(8, 2), (8, 3)], (8, 3), (8, 2)),
    "thm2-div": ("n", THM2_GRID, (4, 3), (4, 3)),
    "thm2-vanish": ("n", [(1, 2), (1, 3), (2, 3), (3, 2), (4, 3)], (4, 3), (4, 3)),
    "oracle": ("n", [(1, 2), (1, 3), (2, 2), (2, 3), (3, 2), (3, 3)], (3, 3), (3, 3)),
}


class TestSweepTable:
    """Every sweep's size name, grid, limits and single-run default, as
    literals, under the default limits and with each limit at 1."""

    @pytest.mark.parametrize(
        "override, changed",
        [
            ({}, {}),
            ({"thm1_d": 1}, {
                "thm1": ("n", [], (5, 1), (5, 1)),
                "thm1-scaled": ("n", [], (5, 1), (5, 1)),
                "littlewood": ("max_size", [], (8, 1), (8, 1)),
            }),
            ({"thm2_d": 1}, {
                "thm2-div": ("n", [], (4, 1), (4, 1)),
                "thm2-vanish": ("n", [], (4, 1), None),
                "oracle": ("n", [], (3, 1), (3, 1)),
            }),
            ({"thm2_n": 1}, {
                "thm2-div": ("n", [(1, 2), (1, 3)], (1, 3), (1, 3)),
                "thm2-vanish": ("n", [(1, 2), (1, 3)], (1, 3), (1, 3)),
                "oracle": ("n", [(1, 2), (1, 3)], (1, 3), (1, 3)),
            }),
            ({"littlewood_size": 1}, {"littlewood": ("max_size", [(1, 2), (1, 3)], (1, 3), (1, 2))}),
        ],
    )
    def test_fields_are_pinned(self, override, changed):
        table = verify_mod.sweep_table(Config(**override))
        fields = {name: (s.size_name, list(s.grid), s.limits, s.default) for name, s in table.items()}
        assert fields == {**DEFAULT_SWEEPS, **changed}
        assert list(table) == list(DEFAULT_SWEEPS)


def add_one_at(phi, mu):
    """phi with 1 added to its value at the class mu, in place."""
    phi.values[mu] = phi.values.get(mu, 0) + 1
    return phi


def resynthesis_off_at_2(monkeypatch):
    real = verify_mod.symfunc.to_power
    monkeypatch.setattr(verify_mod.symfunc, "to_power", lambda mults, cache=None: add_one_at(real(mults, cache), (2,)))


def plethystic_route_off_at_21(monkeypatch):
    real = verify_mod.boxplus_classfunction

    def patched(lam, d, route=verify_mod.ROUTE_DIRECT, cache=None):
        phi = real(lam, d, route, cache)
        return add_one_at(phi, (2, 1)) if lam == (2, 1) and route == verify_mod.ROUTE_PLETHYSTIC else phi

    monkeypatch.setattr(verify_mod, "boxplus_classfunction", patched)


class TestZeroClasses:
    """A class function stores no value where it is 0, yet the sweeps check
    every class of n: a wrong nonzero value against such a 0 is reported.
    The class (2) of scaled_classfunction((1, 1), 2) and the class (2, 1)
    of both routes for lambda = (2, 1) at d = 2 have the value 0."""

    @pytest.mark.parametrize(
        "patch, sweep, n, expected",
        [
            (resynthesis_off_at_2, verify_theorem1_scaled, 2, {
                "lambda": "1,1",
                "mu": "2",
                "relation": "sum of multiplicities times irreducibles = class function",
                "resynthesized": "1",
                "value": "0",
            }),
            (plethystic_route_off_at_21, verify_theorem1, 3, {
                "lambda": "2,1",
                "mu": "2,1",
                "relation": "direct route = plethystic route",
                "direct": "0",
                "plethystic": "1",
            }),
        ],
        ids=["resynthesis", "routes"],
    )
    def test_a_wrong_value_at_a_zero_class_is_reported(self, monkeypatch, patch, sweep, n, expected):
        patch(monkeypatch)
        report = sweep(n, 2, cache=CharCache())
        assert report.status == "FAIL"
        assert expected in report.failures


SWEEP_NAMES = (
    "verify_theorem1",
    "verify_theorem1_scaled",
    "verify_littlewood",
    "verify_theorem2_div",
    "verify_theorem2_vanish",
    "verify_hall_oracle",
)


class TestRunVerifyAll:
    def test_sweeps_are_looked_up_at_call_time(self, monkeypatch):
        calls = []
        for name in SWEEP_NAMES:
            def record(*args, _name=name, _sweep=getattr(verify_mod, name), **kwargs):
                report = _sweep(*args, **kwargs)
                calls.append((_name, args, kwargs, report))
                return report

            monkeypatch.setattr(verify_mod, name, record)
        cache = CharCache()
        reports = run_verify_all(Config(thm1_n=2, thm1_d=2, littlewood_size=3, thm2_n=2, thm2_d=2), cache)
        assert len(calls) == len(reports) == 10
        assert all(call[3] is report for call, report in zip(calls, reports))
        assert {call[0] for call in calls} == set(SWEEP_NAMES)
        # Positional (size, d, size limit, d limit, cache), as recorded calls are replayed.
        assert all(len(args) == 5 and args[4] is cache and not kwargs for _, args, kwargs, _ in calls)

    def test_fixed_order_and_grids(self):
        reports = run_verify_all(Config(thm1_n=2, thm1_d=2, littlewood_size=3, thm2_n=2, thm2_d=2))
        assert [r.theorem for r in reports] == [
            "Thm1", "Thm1",
            "Thm1Scaled", "Thm1Scaled",
            "Littlewood",
            "Thm2Div", "Thm2Div",
            "Thm2Vanish",
            "HallOracle", "HallOracle",
        ]
        assert all(r.status == "PASS" for r in reports)
        vanish = [r for r in reports if r.theorem == "Thm2Vanish"]
        assert [r.params for r in vanish] == [{"n": 1, "d": 2}]


def bump_big_rows(monkeypatch):
    """Add 1 to the first value of every row of a shape of size > 3, as read by verify and characters."""
    for module in (verify_mod, characters_mod):
        def off_by_one(lam, classes, cache, _real=module._row):
            row = _real(lam, classes, cache)
            if sum(lam) > 3:
                row[next(iter(row))] += 1
            return row

        monkeypatch.setattr(module, "_row", off_by_one)


class TestFailureOutput:
    """Every sweep's failure records, pinned byte for byte: wrong big-shape
    rows, a plethystic route off at two classes and an abacus route off by
    p_1 make all six sweeps report, and the timing-free reports of
    run_verify_all under thm1_n = 3, thm1_d = 3, littlewood_size = 4,
    thm2_n = 3 and thm2_d = 3 hash to a fixed value."""

    FAILURES = 111
    SHA256 = "66aac523f0364ff93a87e8442a99008e509bfba797ec60584a54b1206a1f5447"

    def test_failure_records_are_pinned(self, monkeypatch):
        bump_big_rows(monkeypatch)
        real_boxplus = verify_mod.boxplus_classfunction

        def plethystic_off(lam, d, route=verify_mod.ROUTE_DIRECT, cache=None):
            phi = real_boxplus(lam, d, route, cache)
            if route == verify_mod.ROUTE_PLETHYSTIC:
                add_one_at(phi, (1,) * sum(lam))
                phi.values[lam] = phi.values.get(lam, 0) + 2
            return phi

        monkeypatch.setattr(verify_mod, "boxplus_classfunction", plethystic_off)
        real_littlewood = verify_mod.symfunc.phi_d_littlewood
        monkeypatch.setattr(
            verify_mod.symfunc, "phi_d_littlewood",
            lambda nu, d, cache=None: real_littlewood(nu, d, cache) + SymFunc({(1,): 1}),
        )
        config = Config(thm1_n=3, thm1_d=3, littlewood_size=4, thm2_n=3, thm2_d=3)
        reports = run_verify_all(config, CharCache())
        assert {report.theorem for report in reports if report.status == "FAIL"} == {
            "Thm1", "Thm1Scaled", "Littlewood", "Thm2Div", "Thm2Vanish", "HallOracle",
        }
        assert sum(len(report.failures) for report in reports) == self.FAILURES
        text = json.dumps([report.without_timing().to_json_dict() for report in reports], indent=2)
        assert hashlib.sha256(text.encode()).hexdigest() == self.SHA256

    def test_records_the_pin_does_not_reach_keep_their_key_order(self, monkeypatch):
        resynthesis_off_at_2(monkeypatch)
        monkeypatch.setattr(verify_mod, "f_dim", lambda lam: 2)
        resynthesis = ("relation", "sum of multiplicities times irreducibles = class function")
        identity = ("relation", "identity value = (dn)!/(n!)^d * f^d")
        assert pinned(verify_theorem1(2, 2, cache=CharCache()).failures) == [
            [("lambda", "2"), ("mu", "2"), resynthesis, ("resynthesized", "3"), ("value", "2")],
            [("lambda", "2"), identity, ("value", "6"), ("expected", "24")],
            [("lambda", "1,1"), ("mu", "2"), resynthesis, ("resynthesized", "3"), ("value", "2")],
            [("lambda", "1,1"), identity, ("value", "6"), ("expected", "24")],
        ]
