"""Verification sweeps for the grid-subdivision embedding.

Each sweep checks one family of identities by at least two independent
computation routes and returns a VerificationReport.  Failures are collected,
not raised: each sweep's per-item check yields a record for every violated
case, with enough data to rerun it in isolation, and a disagreement of two
routes is always recorded by _disagreement.

The headline checks:

* theorem1: for every shape of n, the grid-subdivided class function is a
  genuine character.  Route agreement (ribbon stripping vs Hall pairing),
  integrality and nonnegativity of the decomposition, re-synthesis, and the
  induced-module dimension identity (dn)!/(n!)^d * f(lambda)^d.
* theorem1_scaled: the part-scaled variant decomposes with nonnegative
  integer multiplicities.
* littlewood: the abacus route for the p_d-adjoint on Schur functions equals
  the power-basis closed form.
* theorem2_div: d! divides the subdivided character at part-scaled classes,
  with values cross-checked against the Hall pairing with p_mu, read as F_mu.
* theorem2_vanish: the subdivided character vanishes at d^2-scaled classes
  when d does not divide n.
* hall_oracle: an ordered-tuple summation reproduces the same values from
  centralizer ratios and small characters only, with the rearrangement-orbit
  divisibility argument checked orbit by orbit.
"""

from __future__ import annotations

import functools
import math
import time
from collections import Counter
from fractions import Fraction
from typing import Callable, Iterator, NamedTuple, Sequence

from . import symfunc
from .characters import (
    ROUTE_DIRECT,
    ROUTE_PLETHYSTIC,
    _classes,
    boxplus_classfunction,
    decompose,
    scaled_classfunction,
)
from .config import (
    DEFAULT_LITTLEWOOD_SIZE,
    DEFAULT_ORACLE_N,
    DEFAULT_THM1_D,
    DEFAULT_THM1_N,
    DEFAULT_THM2_D,
    DEFAULT_THM2_N,
    Config,
    _check_positive,
    check_limit,
)
from .mn import CharCache, _row
from .partitions import (
    Partition,
    _boxplus,
    _scale,
    centralizer_order,
    check_partition,
    conjugate,
    format_partition,
    multiplicity_pattern,
    partitions_of,
    sort_key,
)
from .symfunc import SymFunc

THM1 = "Thm1"
THM1_SCALED = "Thm1Scaled"
LITTLEWOOD = "Littlewood"
THM2_DIV = "Thm2Div"
THM2_VANISH = "Thm2Vanish"
HALL_ORACLE = "HallOracle"


class VerificationReport:
    """Outcome of one sweep: what was checked, how many cases, what broke."""

    def __init__(
        self, theorem: str, params: dict, cases_checked: int, failures: list | None = None, elapsed_ms: int = 0
    ):
        self.theorem = theorem
        self.params = params
        self.cases_checked = cases_checked
        self.failures = [] if failures is None else failures
        self.elapsed_ms = elapsed_ms

    def __eq__(self, other: object) -> bool:
        return vars(self) == vars(other) if other.__class__ is self.__class__ else NotImplemented

    @property
    def status(self) -> str:
        return "PASS" if not self.failures else "FAIL"

    def to_json_dict(self) -> dict:
        return {
            "theorem": self.theorem,
            "params": self.params,
            "cases": self.cases_checked,
            "failures": self.failures,
            "elapsed_ms": self.elapsed_ms,
            "status": self.status,
        }

    def without_timing(self) -> "VerificationReport":
        return VerificationReport(self.theorem, self.params, self.cases_checked, self.failures, 0)


def _timed(
    theorem: str, params: dict, check: Callable[..., Iterator[dict]], items: Sequence, cases_each: int = 1
) -> VerificationReport:
    """Run check over items, each item cases_each cases, keeping the failure
    records it yields in input order."""
    start = time.perf_counter()
    failures = [failure for item in items for failure in check(item)]
    elapsed_ms = int((time.perf_counter() - start) * 1000)
    return VerificationReport(theorem, params, cases_each * len(items), failures, elapsed_ms)


def _disagreement(
    lam: Partition, mu: Partition, relation: str, first: tuple[str, int | Fraction], second: tuple[str, int | Fraction]
) -> dict:
    """The failure record of two routes to the value at lam and mu that
    disagree, each route given as its (name, value)."""
    record = {"lambda": format_partition(lam), "mu": format_partition(mu), "relation": relation}
    return record | {name: symfunc.format_rational(value) for name, value in (first, second)}


def f_dim(lam: Partition) -> int:
    """Number of standard Young tableaux of shape lam, by hook lengths."""
    lam = check_partition(lam)
    n = sum(lam)
    cols = conjugate(lam)
    hooks = 1
    for i, row in enumerate(lam):
        for j in range(row):
            hooks *= row - j + cols[j] - i - 1
    dim, remainder = divmod(math.factorial(n), hooks)
    if remainder:
        raise ArithmeticError(f"hook product {hooks} does not divide {n}!")
    return dim


def _character_failures(lam: Partition, phi: SymFunc, cache: CharCache | None) -> Iterator[dict]:
    """Check that phi, a class function of S_n with n = |lam|, is a
    character: its decomposition has nonnegative integer multiplicities, and
    re-synthesizing from them (the class values of their to_power)
    reproduces phi at every class of n, those where phi is 0 included."""
    mults = decompose(phi, cache)
    for nu, m in mults.items():
        if m.denominator != 1 or m < 0:
            yield {
                "lambda": format_partition(lam),
                "irreducible": format_partition(nu),
                "relation": "multiplicity is a nonnegative integer",
                "multiplicity": symfunc.format_rational(m),
            }
    resynth_values = symfunc.to_power(mults, cache).values
    for mu in partitions_of(sum(lam)):
        value, resynth = phi.values.get(mu, 0), resynth_values.get(mu, 0)
        if resynth != value:
            relation = "sum of multiplicities times irreducibles = class function"
            yield _disagreement(lam, mu, relation, ("resynthesized", resynth), ("value", value))


def verify_theorem1(
    n: int,
    d: int,
    max_n: int = DEFAULT_THM1_N,
    max_d: int = DEFAULT_THM1_D,
    cache: CharCache | None = None,
) -> VerificationReport:
    """Check that the grid-subdivided class function is a genuine character.

    For every lambda of n: the two routes agree at every class, the
    decomposition has nonnegative integer multiplicities, re-synthesizing
    from those multiplicities reproduces the class function, and the value
    at the identity class matches the induced-module dimension.
    """
    check_limit("n", n, max_n)
    check_limit("d", d, max_d)
    mus = partitions_of(n)
    identity = (1,) * n

    def check(lam: Partition) -> Iterator[dict]:
        direct = boxplus_classfunction(lam, d, ROUTE_DIRECT, cache)
        plethystic = boxplus_classfunction(lam, d, ROUTE_PLETHYSTIC, cache)
        for mu in mus:
            value, other = direct.values.get(mu, 0), plethystic.values.get(mu, 0)
            if value != other:
                yield _disagreement(lam, mu, "direct route = plethystic route", ("direct", value), ("plethystic", other))
        yield from _character_failures(lam, direct, cache)
        expected_dim = math.factorial(d * n) // math.factorial(n) ** d * f_dim(lam) ** d
        if direct.values.get(identity, 0) != expected_dim:
            yield {
                "lambda": format_partition(lam),
                "relation": "identity value = (dn)!/(n!)^d * f^d",
                "value": symfunc.format_rational(direct.values.get(identity, 0)),
                "expected": str(expected_dim),
            }

    return _timed(THM1, {"n": n, "d": d}, check, mus)


def verify_theorem1_scaled(
    n: int,
    d: int,
    max_n: int = DEFAULT_THM1_N,
    max_d: int = DEFAULT_THM1_D,
    cache: CharCache | None = None,
) -> VerificationReport:
    """Check that the part-scaled class function is a genuine character."""
    check_limit("n", n, max_n)
    check_limit("d", d, max_d)

    def check(lam: Partition) -> Iterator[dict]:
        return _character_failures(lam, scaled_classfunction(lam, d, cache), cache)

    return _timed(THM1_SCALED, {"n": n, "d": d}, check, partitions_of(n))


def verify_littlewood(
    max_size: int,
    d: int,
    bound: int = DEFAULT_LITTLEWOOD_SIZE,
    max_d: int = DEFAULT_THM1_D,
    cache: CharCache | None = None,
) -> VerificationReport:
    """Check the abacus route for the adjoint against the power-basis route.

    Sweeps every partition of every size up to max_size, the empty one
    included; partitions whose d-core is nonempty must give zero on both
    routes.  max_size is bounded by bound and d by max_d.
    """
    check_limit("max_size", max_size, bound)
    check_limit("d", d, max_d)
    nus = [nu for m in range(max_size + 1) for nu in partitions_of(m)]

    def check(nu: Partition) -> Iterator[dict]:
        via_abacus = symfunc.phi_d_littlewood(nu, d, cache)
        via_power = symfunc.phi_d_power(symfunc._schur_power(nu, 1, cache), d)
        if via_abacus != via_power:
            terms = (via_abacus - via_power).terms
            difference = {format_partition(mu): symfunc.format_rational(terms[mu]) for mu in sorted(terms, key=sort_key)}
            yield {
                "nu": format_partition(nu),
                "d": d,
                "relation": "abacus route = power-basis route",
                "difference_terms": difference,
            }

    return _timed(LITTLEWOOD, {"max_size": max_size, "d": d}, check, nus)


def verify_theorem2_div(
    n: int,
    d: int,
    max_n: int = DEFAULT_THM2_N,
    max_d: int = DEFAULT_THM2_D,
    cache: CharCache | None = None,
) -> VerificationReport:
    """Check d! divisibility of subdivided characters at part-scaled classes.

    For every lambda of n and mu of d*n: d! divides the ribbon-stripping
    value at the d-scaled class of mu, and that value equals the Hall
    pairing of the d-th power of the Schur expansion with p_mu, read as its
    class value F_mu (= F_mu * z_mu / z_mu); the stripped shape is never read.
    """
    check_limit("n", n, max_n)
    check_limit("d", d, max_d)
    mus = partitions_of(d * n)
    classes = _classes(_scale, d * n, d)
    divisor = math.factorial(d)

    def check(lam: Partition) -> Iterator[dict]:
        row = _row(_boxplus(lam, d), classes, cache)
        power = symfunc._schur_power(lam, d, cache).values
        for mu, cls in zip(mus, classes):
            value = row[cls]
            if value % divisor != 0:
                yield {
                    "lambda": format_partition(lam),
                    "mu": format_partition(mu),
                    "relation": f"{divisor} divides value",
                    "value": str(value),
                }
            pairing = power.get(mu, 0)
            if pairing != value:
                relation = "ribbon-stripping value = Hall pairing"
                yield _disagreement(lam, mu, relation, ("value", value), ("pairing", pairing))

    return _timed(THM2_DIV, {"n": n, "d": d}, check, partitions_of(n), len(mus))


def verify_theorem2_vanish(
    n: int,
    d: int,
    max_n: int = DEFAULT_THM2_N,
    max_d: int = DEFAULT_THM2_D,
    cache: CharCache | None = None,
) -> VerificationReport:
    """Check vanishing at d^2-scaled classes when d does not divide n."""
    check_limit("n", n, max_n)
    check_limit("d", d, max_d)
    if n % d == 0:
        raise ValueError(f"hypothesis d does not divide n violated: d = {d}, n = {n}")
    nus = partitions_of(n)
    classes = _classes(_scale, n, d * d)

    def check(lam: Partition) -> Iterator[dict]:
        row = _row(_boxplus(lam, d), classes, cache)
        for nu, cls in zip(nus, classes):
            if row[cls] != 0:
                yield {
                    "lambda": format_partition(lam),
                    "nu": format_partition(nu),
                    "relation": "value = 0",
                    "value": str(row[cls]),
                }

    return _timed(THM2_VANISH, {"n": n, "d": d}, check, nus, len(nus))


def _ordered_tuples(mu: Partition, n: int, d: int) -> list[tuple[Partition, ...]]:
    """All ordered d-tuples of partitions of n whose multiset union is mu, in
    descending lexicographic order."""
    if d == 0:
        return [] if mu else [()]
    tuples = []
    for piece in partitions_of(n):
        rest = list(mu)
        try:
            for part in piece:
                rest.remove(part)
        except ValueError:
            continue
        tuples.extend((piece,) + tail for tail in _ordered_tuples(tuple(rest), n, d - 1))
    return tuples


def _oracle_input(lam: Partition, mu: Partition, d: int, cache: CharCache | None) -> tuple[Partition, Partition, dict, tuple]:
    """Checked lam and mu, lam's character row and mu's _orbits, for a tuple
    summation at the d-scaled class of mu."""
    _check_positive("d", d)
    lam = check_partition(lam)
    mu = check_partition(mu)
    n = sum(lam)
    if sum(mu) != d * n:
        raise ValueError(f"size mismatch: |mu| = {sum(mu)}, expected d*n = {d * n}")
    return lam, mu, _row(lam, partitions_of(n), cache), _orbits(mu, n, d)


def hall_summation_oracle(lam: Partition, mu: Partition, d: int, cache: CharCache | None = None) -> int | Fraction:
    """Sum over ordered d-tuples of partitions of n with multiset union mu of
    the centralizer ratio times the product of small character values,
    accumulated orbit by orbit under rearrangement of the tuples.

    Independent route to the subdivided character at the d-scaled class of
    mu: it needs only characters of the small symmetric group.  Empty sum
    (zero) when mu has a part larger than n.  An int; a Fraction only where
    a centralizer ratio is not integral, which a correct z never gives.
    """
    _, _, row, orbits = _oracle_input(lam, mu, d, cache)
    return _oracle(row, orbits, d)[0]


def orbit_divisibility_check(
    lam: Partition, mu: Partition, d: int, cache: CharCache | None = None
) -> VerificationReport:
    """Check the rearrangement-orbit divisibility argument case by case.

    Ordered tuples are grouped into orbits under rearrangement.  Per orbit
    with multiplicity pattern sigma: the centralizer ratio is an integer
    divisible by the product of the sigma_i factorials, the orbit size is
    the multinomial d!/(sigma_1!...sigma_r!), and the orbit's total
    contribution is divisible by d!.  Needs n >= 1: for lam = () the single
    empty tuple contributes 1, which d! does not divide for d >= 2.
    """
    lam, mu, row, orbits = _oracle_input(lam, mu, d, cache)
    if not lam:
        raise ValueError("the divisibility check needs |lambda| >= 1, got lambda = ()")
    params = {"lambda": format_partition(lam), "mu": format_partition(mu), "d": d}
    return _timed(HALL_ORACLE, params, lambda orbit: _oracle(row, [orbit], d)[1], orbits)


@functools.lru_cache(maxsize=256)
def _orbits(mu: Partition, n: int, d: int) -> tuple[tuple[tuple[Partition, ...], int | Fraction, list[dict]], ...]:
    """The rearrangement orbits of the ordered d-tuples of partitions of n with multiset
    union mu, from one walk per process, as (sorted representative, weight, records) in
    partitions_of order of the representatives.  The weight is the number of tuples walked
    (not the multinomial, so the orbit-size check stays independent of the sum) times the
    centralizer ratio; the records, which _oracle copies out, are the failures of the
    checks that do not read lam: size, then ratio."""
    z_mu = centralizer_order(mu)
    d_factorial = math.factorial(d)
    # Pieces all have size n, where descending lexicographic order is partitions_of order.
    sizes = Counter(tuple(sorted(tup, reverse=True)) for tup in _ordered_tuples(mu, n, d))
    orbits = []
    for rep, size in sorted(sizes.items(), reverse=True):
        sigma = multiplicity_pattern(rep)
        sigma_factorial = math.prod(math.factorial(s) for s in sigma)
        expected_size = d_factorial // sigma_factorial
        records = []
        if size != expected_size:
            records.append({
                "orbit": list(map(format_partition, rep)),
                "relation": "orbit size = multinomial of sigma",
                "size": size,
                "expected": expected_size,
            })
        ratio = symfunc._exact(Fraction(z_mu, math.prod(centralizer_order(piece) for piece in rep)))
        if ratio % sigma_factorial:
            records.append({
                "orbit": list(map(format_partition, rep)),
                "relation": "centralizer ratio is an integer divisible by the sigma factorials",
                "ratio": symfunc.format_rational(ratio),
                "sigma": format_partition(sigma),
            })
        orbits.append((rep, size * ratio, records))
    return tuple(orbits)


def _oracle(row: dict[Partition, int], orbits: Sequence, d: int) -> tuple[int | Fraction, list[dict]]:
    """The tuple sum of hall_summation_oracle and the failures of
    orbit_divisibility_check, for the character row of a lam of n and the
    _orbits of a mu of d*n: per orbit, its weight times the row values at
    its pieces, and its records followed by the contribution check's."""
    d_factorial = math.factorial(d)
    total, failures = 0, []
    for rep, weight, records in orbits:
        if records:  # copied, so no caller can edit what _orbits keeps
            failures += [dict(record, orbit=list(record["orbit"])) for record in records]
        contribution = weight * math.prod(map(row.__getitem__, rep))
        total += contribution
        if contribution % d_factorial:
            failures.append({
                "orbit": list(map(format_partition, rep)),
                "relation": f"orbit contribution divisible by {d_factorial}",
                "contribution": symfunc.format_rational(contribution),
            })
    return total, failures


def verify_hall_oracle(
    n: int,
    d: int,
    max_n: int = DEFAULT_ORACLE_N,
    max_d: int = DEFAULT_THM2_D,
    cache: CharCache | None = None,
) -> VerificationReport:
    """Check the tuple-summation oracle against ribbon stripping, plus the
    per-orbit divisibility, over every lambda of n and mu of d*n.  The
    orbits of each mu do not depend on lambda: they are walked, weighted
    and checked once per process (_orbits), and each lambda only reads its row."""
    check_limit("n", n, max_n)
    check_limit("d", d, max_d)
    mus = partitions_of(d * n)
    classes = _classes(_scale, d * n, d)
    orbits = {mu: _orbits(mu, n, d) for mu in mus}

    def check(lam: Partition) -> Iterator[dict]:
        row = _row(lam, partitions_of(n), cache)
        stripping = _row(_boxplus(lam, d), classes, cache)
        for mu, cls in zip(mus, classes):
            oracle, orbit_failures = _oracle(row, orbits[mu], d)
            if oracle != stripping[cls]:
                relation = "tuple summation = ribbon stripping"
                yield _disagreement(lam, mu, relation, ("summation", oracle), ("stripping", stripping[cls]))
            for failure in orbit_failures:
                yield dict(failure, **{"lambda": format_partition(lam), "mu": format_partition(mu)})

    return _timed(HALL_ORACLE, {"n": n, "d": d}, check, partitions_of(n), len(mus))


class Sweep(NamedTuple):
    """One sweep: the function of this module that runs it (sweep_table reads
    it on every call, so a patched attribute is what runs), the name of its
    size argument, the (size, d) pairs of its `run_verify_all` grid, the
    (size limit, d limit) passed to it, and the (size, d) of a single run
    for each flag not given (None when there is no such pair)."""

    function: Callable[..., VerificationReport]
    size_name: str
    grid: Sequence[tuple[int, int]]
    limits: tuple[int, int]
    default: tuple[int, int] | None


def sweep_table(config: Config | None = None) -> dict[str, Sweep]:
    """Every sweep by its CLI name, in the order run_verify_all runs them,
    under the limits of config (None: the defaults).

    The d-grids start at 2 (d = 1 cases are identities).  The vanishing
    sweep keeps only the pairs with d not dividing n, and a single run of it
    defaults to the last of them.  The oracle's size is also bounded by
    DEFAULT_ORACLE_N.
    """
    c = Config() if config is None else config
    thm1_n, thm1_d, littlewood_size, thm2_n, thm2_d = c.thm1_n, c.thm1_d, c.littlewood_size, c.thm2_n, c.thm2_d

    def grid(sizes: Sequence[int], max_d: int) -> list[tuple[int, int]]:
        return [(size, d) for size in sizes for d in range(2, max_d + 1)]

    thm1_grid, thm2_grid = grid(range(1, thm1_n + 1), thm1_d), grid(range(1, thm2_n + 1), thm2_d)
    vanish_grid = [(n, d) for n, d in thm2_grid if n % d]
    littlewood_grid = grid([littlewood_size], thm1_d)
    oracle_limits = (min(thm2_n, DEFAULT_ORACLE_N), thm2_d)
    thm1_limits, thm2_limits = (thm1_n, thm1_d), (thm2_n, thm2_d)
    return {
        "thm1": Sweep(verify_theorem1, "n", thm1_grid, thm1_limits, thm1_limits),
        "thm1-scaled": Sweep(verify_theorem1_scaled, "n", thm1_grid, thm1_limits, thm1_limits),
        "littlewood": Sweep(
            verify_littlewood, "max_size", littlewood_grid, (littlewood_size, thm1_d), (littlewood_size, min(2, thm1_d))
        ),
        "thm2-div": Sweep(verify_theorem2_div, "n", thm2_grid, thm2_limits, thm2_limits),
        "thm2-vanish": Sweep(
            verify_theorem2_vanish, "n", vanish_grid, thm2_limits, vanish_grid[-1] if vanish_grid else None
        ),
        "oracle": Sweep(verify_hall_oracle, "n", grid(range(1, oracle_limits[0] + 1), thm2_d), oracle_limits, oracle_limits),
    }


def run_verify_all(config: Config | None = None, cache: CharCache | None = None) -> list[VerificationReport]:
    """Run every sweep over its grid under the limits of config (None: the
    defaults), in the order of sweep_table."""
    return [
        sweep.function(size, d, *sweep.limits, cache) for sweep in sweep_table(config).values() for size, d in sweep.grid
    ]
