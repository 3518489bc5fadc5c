"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Every check is exact rational or integer arithmetic; there are no
tolerances anywhere.  The criteria:

1. subdivision sweep for n <= 5, d in {2, 3}: routes agree, multiplicities
   are nonnegative integers, identity value matches the dimension count
2. abacus route for the adjoint equals the power-basis route for all
   shapes of size <= 8, d in {2, 3}; nonempty-core shapes give zero
3. d! divisibility for n <= 4, d in {2, 3}, with the tuple-summation
   oracle and per-orbit divisibility confirming it for n <= 3
4. vanishing at d^2-scaled classes on the d-not-dividing-n grid
5. character-table integrity for n <= 7: row and column orthogonality,
   conjugation twist, sum of squared dimensions
6. adjointness of the variable-power map and its Hall adjoint on all
   power-sum basis elements of degree <= 5 and 100 random combinations
7. part-scaled class functions decompose with nonnegative integer
   multiplicities for n <= 5, d in {2, 3}
8. `verify all` output is byte-identical across runs and after deleting
   the cache file
"""

import json
import math
import os
import random
from contextlib import contextmanager
from fractions import Fraction

import pytest

from plethy import (
    CharCache,
    Config,
    SymFunc,
    centralizer_order,
    character_table,
    conjugate,
    d_core,
    f_dim,
    hall_inner,
    partitions_of,
    phi_d_littlewood,
    phi_d_power,
    psi_d,
    save_config,
    schur_to_power,
    verify_hall_oracle,
    verify_littlewood,
    verify_theorem1,
    verify_theorem1_scaled,
    verify_theorem2_div,
    verify_theorem2_vanish,
)
from plethy.cli import main


@pytest.fixture(scope="module")
def cache(tmp_path_factory):
    path = tmp_path_factory.mktemp("acceptance") / "mn_cache.txt"
    return CharCache(str(path))


@contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except BaseException:
        print(f"criterion {number} ({label}): FAIL")
        raise
    print(f"criterion {number} ({label}): PASS")


def test_criterion_1_subdivision_sweep(cache):
    with criterion(1, "subdivision sweep n <= 5, d in {2, 3}"):
        for n in range(1, 6):
            for d in (2, 3):
                report = verify_theorem1(n, d, cache=cache)
                assert report.status == "PASS", (n, d, report.failures)
                assert report.cases_checked == len(partitions_of(n))


def test_criterion_2_abacus_route(cache):
    with criterion(2, "abacus route = power route, size <= 8, d in {2, 3}"):
        for d in (2, 3):
            report = verify_littlewood(8, d, cache=cache)
            assert report.status == "PASS", (d, report.failures)
        for nu, d in (((2, 1), 2), ((3, 1), 3)):
            assert d_core(nu, d) != ()
            assert phi_d_littlewood(nu, d, cache).is_zero()
            assert phi_d_power(schur_to_power(nu, cache), d).is_zero()


def test_criterion_3_divisibility(cache):
    with criterion(3, "d! divisibility n <= 4 plus oracle n <= 3"):
        for n in range(1, 5):
            for d in (2, 3):
                report = verify_theorem2_div(n, d, cache=cache)
                assert report.status == "PASS", (n, d, report.failures)
        for n in range(1, 4):
            for d in (2, 3):
                report = verify_hall_oracle(n, d, cache=cache)
                assert report.status == "PASS", (n, d, report.failures)


def test_criterion_4_vanishing(cache):
    with criterion(4, "vanishing at d^2-scaled classes, d not dividing n"):
        for n, d in ((1, 2), (3, 2), (1, 3), (2, 3), (4, 3)):
            report = verify_theorem2_vanish(n, d, cache=cache)
            assert report.status == "PASS", (n, d, report.failures)
            assert report.cases_checked == len(partitions_of(n)) ** 2


def test_criterion_5_table_integrity(cache):
    with criterion(5, "character-table integrity n <= 7"):
        for n in range(1, 8):
            parts = partitions_of(n)
            rows = character_table(n, cache=cache)
            for i, lam in enumerate(parts):
                for j in range(i, len(parts)):
                    total = sum(
                        Fraction(rows[i][k] * rows[j][k], centralizer_order(mu))
                        for k, mu in enumerate(parts)
                    )
                    assert total == (1 if i == j else 0), (lam, parts[j])
            for k, mu in enumerate(parts):
                for l in range(k, len(parts)):
                    total = sum(rows[i][k] * rows[i][l] for i in range(len(parts)))
                    expected = centralizer_order(mu) if k == l else 0
                    assert total == expected, (mu, parts[l])
            index = {lam: i for i, lam in enumerate(parts)}
            for lam in parts:
                flipped = index[conjugate(lam)]
                for k, mu in enumerate(parts):
                    twist = (-1) ** (n - len(mu))
                    assert rows[flipped][k] == twist * rows[index[lam]][k], (lam, mu)
            assert sum(f_dim(lam) ** 2 for lam in parts) == math.factorial(n)


def random_homogeneous(rng: random.Random, degree: int) -> SymFunc:
    terms = {
        mu: Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        for mu in partitions_of(degree)
    }
    return SymFunc(terms)


def test_criterion_6_adjointness(cache):
    with criterion(6, "adjointness on basis elements and 100 random combinations"):
        for d in (2, 3):
            for m in range(6):
                for nu in partitions_of(m):
                    lifted = psi_d(SymFunc({nu: 1}), d)
                    for rho in partitions_of(d * m):
                        lhs = hall_inner(lifted, SymFunc({rho: 1}))
                        rhs = hall_inner(SymFunc({nu: 1}), phi_d_power(SymFunc({rho: 1}), d))
                        assert lhs == rhs, (nu, rho, d)
        rng = random.Random(20260819)
        for trial in range(100):
            d = 2 if trial % 2 == 0 else 3
            degree = rng.randint(1, 5)
            f = random_homogeneous(rng, degree)
            g = random_homogeneous(rng, d * degree)
            assert hall_inner(psi_d(f, d), g) == hall_inner(f, phi_d_power(g, d)), trial


def test_criterion_7_scaled_variant(cache):
    with criterion(7, "part-scaled decomposition n <= 5, d in {2, 3}"):
        for n in range(1, 6):
            for d in (2, 3):
                report = verify_theorem1_scaled(n, d, cache=cache)
                assert report.status == "PASS", (n, d, report.failures)


def test_criterion_8_determinism(tmp_path, monkeypatch):
    with criterion(8, "verify all is byte-identical, warm or cold cache"):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
        monkeypatch.delenv("PLETHY_CONFIG", raising=False)
        cache_path = tmp_path / "mn_cache.txt"
        config_path = tmp_path / "plethy.cfg"
        save_config(Config(cache_path=str(cache_path)), str(config_path))
        outputs = []
        for name in ("first.json", "second.json", "cold.json"):
            if name == "cold.json":
                assert cache_path.exists()
                os.remove(cache_path)
            target = tmp_path / name
            code = main(["--config", str(config_path), "verify", "all", "--out", str(target)])
            assert code == 0
            outputs.append(target.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]
        payload = json.loads(outputs[0])
        assert payload["status"] == "PASS"
        assert all(report["status"] == "PASS" for report in payload["reports"])
