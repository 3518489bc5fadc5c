"""Verification sweeps for the grid-subdivision embedding.

Each sweep checks one family of identities by at least two independent
computation routes and returns a VerificationReport.  Failures are collected,
not raised: a report lists every violated case with enough data to rerun it
in isolation.

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
  with values cross-checked against the Hall pairing.
* theorem2_vanish: the subdivided character vanishes at d^2-scaled classes
  when d does not divide n.
* hall_oracle: an ordered-tuple summation reproduces the same values from
  centralizer ratios and small characters only, with the rearrangement-orbit
  divisibility argument checked orbit by orbit.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, NamedTuple, Sequence

from . import symfunc
from .characters import (
    ROUTE_DIRECT,
    ROUTE_PLETHYSTIC,
    ClassFunction,
    boxplus_classfunction,
    decompose,
    scaled_classfunction,
)
from .mn import CharCache, _row, mn_value
from .partitions import (
    Partition,
    boxplus,
    centralizer_order,
    check_partition,
    conjugate,
    format_partition,
    multiplicity_pattern,
    partitions_of,
    scale,
    sort_key,
)
from .symfunc import SymFunc

THM1 = "Thm1"
THM1_SCALED = "Thm1Scaled"
LITTLEWOOD = "Littlewood"
THM2_DIV = "Thm2Div"
THM2_VANISH = "Thm2Vanish"
HALL_ORACLE = "HallOracle"

DEFAULT_THM1_N = 5
DEFAULT_THM1_D = 3
DEFAULT_LITTLEWOOD_SIZE = 8
DEFAULT_THM2_N = 4
DEFAULT_THM2_D = 3
DEFAULT_ORACLE_N = 3


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one sweep: what was checked, how many cases, what broke."""

    theorem: str
    params: dict
    cases_checked: int
    failures: list = field(default_factory=list)
    elapsed_ms: int = 0

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


def check_limit(name: str, value: int, limit: int) -> None:
    if value < 1:
        raise ValueError(f"{name} must be positive, got {value}")
    if value > limit:
        raise ValueError(f"{name} = {value} exceeds the limit {limit}")


def _timed(theorem: str, params: dict, worker: Callable, items: Sequence) -> VerificationReport:
    """Run worker over items, merge (cases, failures) pairs in input order."""
    start = time.perf_counter()
    cases = 0
    failures = []
    for case_count, case_failures in map(worker, items):
        cases += case_count
        failures.extend(case_failures)
    elapsed_ms = int((time.perf_counter() - start) * 1000)
    return VerificationReport(theorem, params, cases, failures, elapsed_ms)


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


def _character_failures(lam: Partition, phi: ClassFunction, cache: CharCache | None) -> list:
    """Check that phi, built from lam, is a character: its decomposition has
    nonnegative integer multiplicities, and re-synthesizing from them (the
    class values of their to_power) reproduces phi at every class."""
    failures = []
    mults = decompose(phi, cache)
    for nu, m in mults.items():
        if m.denominator != 1 or m < 0:
            failures.append({
                "lambda": format_partition(lam),
                "irreducible": format_partition(nu),
                "relation": "multiplicity is a nonnegative integer",
                "multiplicity": symfunc.format_rational(m),
            })
    resynth_values = symfunc.to_power(mults, cache).values
    for mu, value in phi.values.items():
        resynth = resynth_values.get(mu, 0)
        if resynth != value:
            failures.append({
                "lambda": format_partition(lam),
                "mu": format_partition(mu),
                "relation": "sum of multiplicities times irreducibles = class function",
                "resynthesized": symfunc.format_rational(resynth),
                "value": symfunc.format_rational(value),
            })
    return failures


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

    def check(lam: Partition) -> tuple[int, list]:
        failures = []
        direct = boxplus_classfunction(lam, d, ROUTE_DIRECT, cache)
        plethystic = boxplus_classfunction(lam, d, ROUTE_PLETHYSTIC, cache)
        for mu in mus:
            if direct.values[mu] != plethystic.values[mu]:
                failures.append({
                    "lambda": format_partition(lam),
                    "mu": format_partition(mu),
                    "relation": "direct route = plethystic route",
                    "direct": symfunc.format_rational(direct.values[mu]),
                    "plethystic": symfunc.format_rational(plethystic.values[mu]),
                })
        failures.extend(_character_failures(lam, direct, cache))
        expected_dim = math.factorial(d * n) // math.factorial(n) ** d * f_dim(lam) ** d
        if direct.values[identity] != expected_dim:
            failures.append({
                "lambda": format_partition(lam),
                "relation": "identity value = (dn)!/(n!)^d * f^d",
                "value": symfunc.format_rational(direct.values[identity]),
                "expected": str(expected_dim),
            })
        return 1, failures

    return _timed(THM1, {"n": n, "d": d}, check, partitions_of(n))


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

    def check(lam: Partition) -> tuple[int, list]:
        return 1, _character_failures(lam, scaled_classfunction(lam, d, cache), cache)

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

    def check(nu: Partition) -> tuple[int, list]:
        via_abacus = symfunc.phi_d_littlewood(nu, d, cache)
        via_power = symfunc.phi_d_power(symfunc.schur_to_power(nu, cache), d)
        if via_abacus != via_power:
            return 1, [{
                "nu": format_partition(nu),
                "d": d,
                "relation": "abacus route = power-basis route",
                "difference_terms": (via_abacus - via_power).to_json_dict()["terms"],
            }]
        return 1, []

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
    pairing of the d-th power of the Schur expansion with p_mu.
    """
    check_limit("n", n, max_n)
    check_limit("d", d, max_d)
    mus = partitions_of(d * n)
    divisor = math.factorial(d)

    def check(lam: Partition) -> tuple[int, list]:
        failures = []
        big = boxplus(lam, d)
        power = symfunc.power_d(symfunc.schur_to_power(lam, cache), d)
        for mu in mus:
            value = mn_value(big, scale(mu, d), cache)
            if value % divisor != 0:
                failures.append({
                    "lambda": format_partition(lam),
                    "mu": format_partition(mu),
                    "relation": f"{divisor} divides value",
                    "value": str(value),
                })
            pairing = symfunc.hall_inner(power, SymFunc._of({mu: centralizer_order(mu)}))
            if pairing != value:
                failures.append({
                    "lambda": format_partition(lam),
                    "mu": format_partition(mu),
                    "relation": "ribbon-stripping value = Hall pairing",
                    "value": str(value),
                    "pairing": symfunc.format_rational(pairing),
                })
        return len(mus), failures

    return _timed(THM2_DIV, {"n": n, "d": d}, check, partitions_of(n))


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

    def check(lam: Partition) -> tuple[int, list]:
        failures = []
        big = boxplus(lam, d)
        for nu in nus:
            value = mn_value(big, scale(nu, d * d), cache)
            if value != 0:
                failures.append({
                    "lambda": format_partition(lam),
                    "nu": format_partition(nu),
                    "relation": "value = 0",
                    "value": str(value),
                })
        return len(nus), failures

    return _timed(THM2_VANISH, {"n": n, "d": d}, check, partitions_of(n))


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


def _oracle_input(lam: Partition, mu: Partition, d: int) -> tuple[Partition, Partition, int]:
    """Checked lam and mu, and n = |lam|, for a tuple summation at the d-scaled
    class of mu; callers read lam's row with mn._row, which does not check it."""
    if d < 1:
        raise ValueError(f"d must be positive, got {d}")
    lam = check_partition(lam)
    mu = check_partition(mu)
    n = sum(lam)
    if sum(mu) != d * n:
        raise ValueError(f"size mismatch: |mu| = {sum(mu)}, expected d*n = {d * n}")
    return lam, mu, n


def hall_summation_oracle(lam: Partition, mu: Partition, d: int, cache: CharCache | None = None) -> Fraction:
    """Sum over ordered d-tuples of partitions of n with multiset union mu of
    the centralizer ratio times the product of small character values,
    accumulated orbit by orbit under rearrangement of the tuples.

    Independent route to the subdivided character at the d-scaled class of
    mu: it needs only characters of the small symmetric group.  Empty sum
    (zero) when mu has a part larger than n.
    """
    lam, mu, n = _oracle_input(lam, mu, d)
    return _oracle(_row(lam, partitions_of(n), cache), mu, n, d)[0]


def orbit_divisibility_check(
    lam: Partition, mu: Partition, d: int, cache: CharCache | None = None
) -> VerificationReport:
    """Check the rearrangement-orbit divisibility argument case by case.

    Ordered tuples are grouped into orbits under rearrangement.  Per orbit
    with multiplicity pattern sigma: the centralizer ratio is an integer
    divisible by the product of the sigma_i factorials, the orbit size is
    the multinomial d!/(sigma_1!...sigma_r!), and the orbit's total
    contribution is divisible by d!.
    """
    start = time.perf_counter()
    lam, mu, n = _oracle_input(lam, mu, d)
    params = {"lambda": format_partition(lam), "mu": format_partition(mu), "d": d}
    _, orbits, failures = _oracle(_row(lam, partitions_of(n), cache), mu, n, d)
    elapsed_ms = int((time.perf_counter() - start) * 1000)
    return VerificationReport(HALL_ORACLE, params, orbits, failures, elapsed_ms)


def _oracle(row: dict[Partition, int], mu: Partition, n: int, d: int) -> tuple[Fraction, int, list]:
    """The tuple sum of hall_summation_oracle, the number of orbits and the
    failures of orbit_divisibility_check, from one walk over the ordered
    tuples, for the character row of a lam of n and a checked mu of d*n.

    The sum weights each orbit by its walked size, not the multinomial, so
    the orbit-size check stays independent of it.
    """
    z_mu = centralizer_order(mu)
    sizes = Counter(tuple(sorted(tup, key=sort_key)) for tup in _ordered_tuples(mu, n, d))
    total = Fraction(0)
    failures = []
    for rep in sorted(sizes, key=lambda r: tuple(sort_key(piece) for piece in r)):
        size = sizes[rep]
        sigma = multiplicity_pattern(rep)
        sigma_factorial = math.prod(math.factorial(s) for s in sigma)
        expected_size = math.factorial(d) // sigma_factorial
        rep_text = [format_partition(piece) for piece in rep]
        if size != expected_size:
            failures.append({
                "orbit": rep_text,
                "relation": "orbit size = multinomial of sigma",
                "size": size,
                "expected": expected_size,
            })
        ratio = Fraction(z_mu, math.prod(centralizer_order(piece) for piece in rep))
        if ratio.denominator != 1 or ratio % sigma_factorial != 0:
            failures.append({
                "orbit": rep_text,
                "relation": "centralizer ratio is an integer divisible by the sigma factorials",
                "ratio": symfunc.format_rational(ratio),
                "sigma": format_partition(sigma),
            })
        contribution = size * ratio * math.prod(row[piece] for piece in rep)
        total += contribution
        if contribution.denominator != 1 or contribution % math.factorial(d) != 0:
            failures.append({
                "orbit": rep_text,
                "relation": f"orbit contribution divisible by {math.factorial(d)}",
                "contribution": symfunc.format_rational(contribution),
            })
    return total, len(sizes), failures


def verify_hall_oracle(
    n: int,
    d: int,
    max_n: int = DEFAULT_ORACLE_N,
    max_d: int = DEFAULT_THM2_D,
    cache: CharCache | None = None,
) -> VerificationReport:
    """Check the tuple-summation oracle against ribbon stripping, plus the
    per-orbit divisibility, over every lambda of n and mu of d*n."""
    check_limit("n", n, max_n)
    check_limit("d", d, max_d)
    mus = partitions_of(d * n)

    def check(lam: Partition) -> tuple[int, list]:
        failures = []
        big = boxplus(lam, d)
        row = _row(lam, partitions_of(n), cache)
        for mu in mus:
            oracle, _, orbit_failures = _oracle(row, mu, n, d)
            stripped = mn_value(big, scale(mu, d), cache)
            if oracle != stripped:
                failures.append({
                    "lambda": format_partition(lam),
                    "mu": format_partition(mu),
                    "relation": "tuple summation = ribbon stripping",
                    "summation": symfunc.format_rational(oracle),
                    "stripping": str(stripped),
                })
            failures.extend(
                dict(failure, **{"lambda": format_partition(lam), "mu": format_partition(mu)})
                for failure in orbit_failures
            )
        return len(mus), failures

    return _timed(HALL_ORACLE, {"n": n, "d": d}, check, partitions_of(n))


class Sweep(NamedTuple):
    """One sweep: the name of the function of this module that runs it (looked
    up at call time, so a patched attribute is what runs), the name of its
    size argument, the (size, d) pairs of its `run_verify_all` grid, the
    (size limit, d limit) passed to it, and the (size, d) of a single run
    for each flag not given (None when there is no such pair)."""

    function: str
    size_name: str
    grid: Sequence[tuple[int, int]]
    limits: tuple[int, int]
    default: tuple[int, int] | None


def sweep_table(
    thm1_n: int = DEFAULT_THM1_N,
    thm1_d: int = DEFAULT_THM1_D,
    littlewood_size: int = DEFAULT_LITTLEWOOD_SIZE,
    thm2_n: int = DEFAULT_THM2_N,
    thm2_d: int = DEFAULT_THM2_D,
) -> dict[str, Sweep]:
    """Every sweep by its CLI name, in the order run_verify_all runs them.

    The d-grids start at 2 (d = 1 cases are identities).  The vanishing
    sweep keeps only the pairs with d not dividing n, and a single run of it
    defaults to the last of them.
    """
    thm1_ds = range(2, thm1_d + 1)
    thm2_ds = range(2, thm2_d + 1)
    thm1_grid = [(n, d) for n in range(1, thm1_n + 1) for d in thm1_ds]
    thm2_grid = [(n, d) for n in range(1, thm2_n + 1) for d in thm2_ds]
    vanish_grid = [(n, d) for n, d in thm2_grid if n % d]
    littlewood_grid = [(littlewood_size, d) for d in thm1_ds]
    oracle_grid = [(n, d) for n in range(1, min(thm2_n, DEFAULT_ORACLE_N) + 1) for d in thm2_ds]
    thm1_limits = (thm1_n, thm1_d)
    thm2_limits = (thm2_n, thm2_d)
    return {
        "thm1": Sweep("verify_theorem1", "n", thm1_grid, thm1_limits, thm1_limits),
        "thm1-scaled": Sweep("verify_theorem1_scaled", "n", thm1_grid, thm1_limits, thm1_limits),
        "littlewood": Sweep(
            "verify_littlewood", "max_size", littlewood_grid, (littlewood_size, thm1_d), (littlewood_size, min(2, thm1_d))
        ),
        "thm2-div": Sweep("verify_theorem2_div", "n", thm2_grid, thm2_limits, thm2_limits),
        "thm2-vanish": Sweep(
            "verify_theorem2_vanish", "n", vanish_grid, thm2_limits, vanish_grid[-1] if vanish_grid else None
        ),
        "oracle": Sweep(
            "verify_hall_oracle", "n", oracle_grid, (DEFAULT_ORACLE_N, thm2_d), (min(thm2_n, DEFAULT_ORACLE_N), thm2_d)
        ),
    }


def run_verify_all(
    thm1_n: int = DEFAULT_THM1_N,
    thm1_d: int = DEFAULT_THM1_D,
    littlewood_size: int = DEFAULT_LITTLEWOOD_SIZE,
    thm2_n: int = DEFAULT_THM2_N,
    thm2_d: int = DEFAULT_THM2_D,
    cache: CharCache | None = None,
) -> list[VerificationReport]:
    """Run every sweep over its grid, in the order of sweep_table."""
    return [
        globals()[sweep.function](size, d, *sweep.limits, cache)
        for sweep in sweep_table(thm1_n, thm1_d, littlewood_size, thm2_n, thm2_d).values()
        for size, d in sweep.grid
    ]
