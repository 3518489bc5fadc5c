"""Brute-force oracles, independent of the package under test.

Everything here is recomputed from first principles with its own partition
enumeration and centralizer bookkeeping, so agreement with the package is a
genuine cross-check rather than a tautology:

* tabloid_character_table: irreducible characters obtained by counting
  tabloids fixed by a permutation (permutation-module characters) and
  Gram-Schmidt reduction, no ribbon stripping anywhere;
* induced_character: the classical induced-character formula over splits
  of a cycle type;
* embedding_value: the ordered-tuple summation for the grid-subdivided
  character at subdivided classes, over the tabloid table;
* syt_count: standard Young tableaux counted one cell at a time;
* partition_ribbons, partition_mn: the ribbon-stripping kernel on partition
  tuples and sorted beta lists, as the package had it before its bead-mask
  kernel, kept to test that kernel differentially;
* beta_core, beta_quotient, beta_sign: d-core, d-quotient and d-sign on
  beta-number tuples, as the package had them before it read its runners
  off bead masks, kept to test those differentially;
* count_partitions: partition counts by capped-part dynamic programming;
* isinstance_check_partition: the partition check with its isinstance test
  and index loop, as the package had it before it tested type(part) is int,
  kept to test that differentially;
* fraction_multiply, fraction_hall_inner, fraction_power_to_schur,
  fraction_to_power, fraction_psi_d, fraction_phi_d_power: the
  symmetric-function layer on {partition: Fraction} power-sum coefficients,
  as the package had it before it stored class values and paired them in
  ints, kept to test those differentially (fraction_power_to_schur and
  fraction_to_power read the tabloid table, not ribbon stripping).
* any_part_phi_d_power: phi_d on class values {partition: F_nu} with the
  part-by-part divisibility test, as the package had it before it tested
  gcd(*nu), kept to test that differentially.
* one_loop_orbits, one_loop_oracle: the rearrangement orbits grouped by
  sort key, and the tuple sum and per-orbit checks in one loop, as the
  package had them before it built the lam-independent orbit data once per
  mu, kept to test that split differentially.  They take the walked tuples,
  the centralizer order and the character row as arguments, so a test can
  feed both sides the same (possibly broken) inputs.
"""

from collections import Counter
from fractions import Fraction
from functools import cache
from math import factorial, prod


def count_partitions(n: int) -> int:
    """Number of partitions of n, by the ways(n, max part) recurrence."""
    table = [[0] * (n + 1) for _ in range(n + 1)]
    for cap in range(n + 1):
        table[cap][0] = 1
    for cap in range(1, n + 1):
        for total in range(1, n + 1):
            table[cap][total] = table[cap - 1][total]
            if total >= cap:
                table[cap][total] += table[cap][total - cap]
    return table[n][n]


def isinstance_check_partition(parts) -> tuple:
    """The parts as a tuple; ValueError, with the package's message, unless
    they are positive non-bool ints in weakly decreasing order."""
    mu = tuple(parts)
    for i, part in enumerate(mu):
        if not isinstance(part, int) or isinstance(part, bool) or part < 1:
            raise ValueError(f"invalid partition {mu!r}: part {part!r} is not a positive integer")
        if i > 0 and mu[i - 1] < part:
            raise ValueError(f"invalid partition {mu!r}: parts not weakly decreasing at {part!r}")
    return mu


def partitions_desc(n: int) -> list[tuple[int, ...]]:
    """Partitions of n in descending lexicographic order."""
    out = []

    def grow(prefix: tuple[int, ...], remaining: int, cap: int):
        if remaining == 0:
            out.append(prefix)
            return
        for part in range(min(cap, remaining), 0, -1):
            grow(prefix + (part,), remaining - part, part)

    grow((), n, n)
    return out


def z_order(mu: tuple[int, ...]) -> int:
    z = 1
    for part in set(mu):
        m = mu.count(part)
        z *= part**m * factorial(m)
    return z


def tabloid_count(lam: tuple[int, ...], mu: tuple[int, ...]) -> int:
    """Tabloids of shape lam fixed by a permutation of cycle type mu.

    Each cycle must land inside a single row; cycles are distinguishable
    even when equal in length, so this is a plain assignment count.
    """
    cycles = list(mu)
    rows = list(lam)

    def assign(index: int, caps: tuple[int, ...]) -> int:
        if index == len(cycles):
            return 1
        size = cycles[index]
        total = 0
        for i, cap in enumerate(caps):
            if cap >= size:
                total += assign(index + 1, caps[:i] + (cap - size,) + caps[i + 1 :])
        return total

    return assign(0, tuple(rows))


def tabloid_character_table(n: int) -> dict[tuple[int, ...], dict[tuple[int, ...], int]]:
    """Irreducible character values {lam: {mu: value}} via Gram-Schmidt.

    Permutation-module characters are triangular against the irreducibles
    along dominance order; descending lexicographic order is a linear
    extension of it, so subtracting previously extracted characters in that
    order isolates each irreducible.
    """
    mus = partitions_desc(n)
    chars: dict[tuple[int, ...], dict[tuple[int, ...], int]] = {}
    for lam in mus:
        row = {mu: Fraction(tabloid_count(lam, mu)) for mu in mus}
        for prev, prev_row in chars.items():
            coeff = sum(row[mu] * prev_row[mu] / z_order(mu) for mu in mus)
            if coeff:
                for mu in mus:
                    row[mu] -= coeff * prev_row[mu]
        norm = sum(row[mu] * row[mu] / z_order(mu) for mu in mus)
        assert norm == 1, f"Gram-Schmidt failed at {lam}: squared norm {norm}"
        chars[lam] = {mu: int(row[mu]) for mu in mus}
    return chars


def splits(parts: tuple[int, ...], total: int):
    """Distinct submultisets of parts summing to total, with the remainder."""
    distinct = sorted(set(parts), reverse=True)
    counts = {p: parts.count(p) for p in distinct}
    results = []

    def descend(index: int, remaining: int, chosen: list[int]):
        if remaining == 0:
            taken = {p: chosen.count(p) for p in set(chosen)}
            rest = []
            for p in distinct:
                rest.extend([p] * (counts[p] - taken.get(p, 0)))
            results.append((tuple(chosen), tuple(rest)))
            return
        if index == len(distinct):
            return
        part = distinct[index]
        for take in range(min(counts[part], remaining // part), -1, -1):
            descend(index + 1, remaining - take * part, chosen + [part] * take)

    descend(0, total, [])
    return results


def induced_character(
    values_a: dict[tuple[int, ...], int],
    size_a: int,
    values_b: dict[tuple[int, ...], int],
    size_b: int,
) -> dict[tuple[int, ...], Fraction]:
    """Induce the outer product of two class functions up to size_a + size_b."""
    result = {}
    for rho in partitions_desc(size_a + size_b):
        total = Fraction(0)
        for rho_a, rho_b in splits(rho, size_a):
            rho_b = tuple(sorted(rho_b, reverse=True))
            total += (
                Fraction(z_order(rho), z_order(rho_a) * z_order(rho_b))
                * values_a[rho_a]
                * values_b[rho_b]
            )
        result[rho] = total
    return result


def embedding_value(lam: tuple[int, ...], mu: tuple[int, ...], d: int) -> Fraction:
    """Grid-subdivided character value at the subdivided class of mu, via the
    ordered-tuple summation over the tabloid character table of the small
    symmetric group."""
    n = sum(lam)
    table = tabloid_character_table(n)
    pooled = tuple(sorted(mu * d, reverse=True))
    total = Fraction(0)

    def tuples(remaining: tuple[int, ...], slots: int, chosen: list[tuple[int, ...]]):
        nonlocal total
        if slots == 0:
            if not remaining:
                ratio = Fraction(z_order(pooled))
                value = 1
                for piece in chosen:
                    ratio /= z_order(piece)
                    value *= table[lam][piece]
                total += ratio * value
            return
        for piece, rest in splits(remaining, n):
            tuples(rest, slots - 1, chosen + [piece])

    tuples(pooled, d, [])
    return total


def syt_count(lam: tuple[int, ...]) -> int:
    """Standard Young tableaux of shape lam, filled cell by cell."""
    if not lam:
        return 1

    def place(rows: tuple[int, ...]) -> int:
        if sum(rows) == sum(lam):
            return 1
        total = 0
        for i in range(len(lam)):
            if rows[i] < lam[i] and (i == 0 or rows[i - 1] > rows[i]):
                total += place(rows[:i] + (rows[i] + 1,) + rows[i + 1 :])
        return total

    return place((0,) * len(lam))


def _decode_betas(betas_desc: list[int]) -> tuple[int, ...]:
    t = len(betas_desc)
    return tuple(b - (t - 1 - i) for i, b in enumerate(betas_desc) if b - (t - 1 - i) > 0)


def partition_ribbons(lam: tuple[int, ...], length: int) -> list[tuple[tuple[int, ...], int, int]]:
    """(smaller, height, sign) of every ribbon of the given length, ascending
    by the moved bead, on t = len(lam) beta numbers."""
    t = len(lam)
    betas = [lam[i] + t - 1 - i for i in range(t)]
    occupied = set(betas)
    removals = []
    for b in sorted(occupied):
        target = b - length
        if target < 0 or target in occupied:
            continue
        height = sum(1 for c in betas if target < c < b)
        moved = sorted((occupied - {b}) | {target}, reverse=True)
        removals.append((_decode_betas(moved), height, -1 if height % 2 else 1))
    return removals


def partition_mn(nu: tuple[int, ...], rho: tuple[int, ...], memo: dict | None = None) -> int:
    """Murnaghan-Nakayama rule, stripping a ribbon of length rho[0] first."""
    if not nu:
        return 1
    memo = {} if memo is None else memo
    key = (nu, rho)
    if key not in memo:
        removals = partition_ribbons(nu, rho[0])
        memo[key] = sum(sign * partition_mn(smaller, rho[1:], memo) for smaller, _, sign in removals)
    return memo[key]


def beta_runners(nu: tuple[int, ...], d: int) -> tuple[list[int], list[list[int]]]:
    """The beta numbers of nu on d * ceil(len/d) beads, decreasing, and per
    residue r the b // d values of the beads congruent to r (runner r)."""
    t = -(-len(nu) // d) * d
    padded = nu + (0,) * (t - len(nu))
    betas = [padded[i] + t - 1 - i for i in range(t)]
    runners: list[list[int]] = [[] for _ in range(d)]
    for b in betas:
        runners[b % d].append(b // d)
    return betas, runners


def beta_core(nu: tuple[int, ...], d: int) -> tuple[int, ...]:
    """d-core: pack each runner's beads into its lowest positions."""
    _, runners = beta_runners(nu, d)
    packed = sorted((q * d + r for r, runner in enumerate(runners) for q in range(len(runner))), reverse=True)
    return _decode_betas(packed)


def beta_quotient(nu: tuple[int, ...], d: int) -> tuple[tuple[int, ...], ...]:
    """d-quotient: each runner's beads read as beta numbers, by residue."""
    _, runners = beta_runners(nu, d)
    return tuple(_decode_betas(runner) for runner in runners)


def beta_sign(nu: tuple[int, ...], d: int) -> int | None:
    """d-sign: sign of the permutation packing every bead down its runner;
    None when the d-core is nonempty."""
    if beta_core(nu, d):
        return None
    betas, runners = beta_runners(nu, d)
    # The j-th highest bead of runner r (1-based) comes to rest at (len(runner) - j) * d + r.
    seen = [0] * d
    finals = []
    for r in (b % d for b in betas):
        seen[r] += 1
        finals.append((len(runners[r]) - seen[r]) * d + r)
    inversions = sum(a < b for i, a in enumerate(finals) for b in finals[i + 1 :])
    return -1 if inversions % 2 else 1


def fraction_multiply(f: dict, g: dict) -> dict:
    """Product of power-sum expansions: p_mu * p_nu is p of the multiset union."""
    out = {}
    for mu, a in f.items():
        for nu, b in g.items():
            key = tuple(sorted(mu + nu, reverse=True))
            out[key] = out.get(key, Fraction(0)) + a * b
    return {key: coeff for key, coeff in out.items() if coeff}


def fraction_hall_inner(f: dict, g: dict) -> Fraction:
    """Hall inner product: power sums are orthogonal with squared norm z_mu."""
    return sum((a * g[mu] * z_order(mu) for mu, a in f.items() if mu in g), Fraction(0))


@cache
def _tabloid_table(n: int) -> dict:
    return tabloid_character_table(n)


def fraction_power_to_schur(f: dict) -> dict:
    """Schur expansion, degree by degree in descending lexicographic order:
    the coefficient of lam is the sum over mu of [p_mu]f * chi^lam_mu."""
    out = {}
    for n in sorted({sum(mu) for mu in f}):
        table = _tabloid_table(n)
        for lam in partitions_desc(n):
            coeff = sum((c * table[lam][mu] for mu, c in f.items() if sum(mu) == n), Fraction(0))
            if coeff:
                out[lam] = coeff
    return out


def fraction_to_power(schur: dict) -> dict:
    """Power-sum expansion of a Schur expansion: the sum over lam of its
    coefficient times s_lam, whose coefficient at p_mu is chi^lam_mu / z_mu."""
    out = {}
    for lam, coeff in schur.items():
        for mu, chi in _tabloid_table(sum(lam))[lam].items():
            out[mu] = out.get(mu, Fraction(0)) + Fraction(coeff) * chi / z_order(mu)
    return {mu: c for mu, c in out.items() if c}


def fraction_psi_d(f: dict, d: int) -> dict:
    """p_mu goes to p of mu with every part multiplied by d."""
    return {tuple(d * part for part in mu): coeff for mu, coeff in f.items()}


def fraction_phi_d_power(f: dict, d: int) -> dict:
    """p_nu goes to d^len(nu) * p_(nu/d) when d divides every part of nu, else to zero."""
    out = {}
    for nu, coeff in f.items():
        if all(part % d == 0 for part in nu):
            key = tuple(part // d for part in nu)
            out[key] = out.get(key, Fraction(0)) + coeff * d ** len(nu)
    return out


def any_part_phi_d_power(values: dict, d: int) -> dict:
    """F_nu moves to nu/d when no part of nu leaves a remainder mod d, else is dropped."""
    divisible = (nu for nu in values if not any(part % d for part in nu))
    return {tuple(part // d for part in nu): values[nu] for nu in divisible}


def _sort_key(mu: tuple[int, ...]):
    return (sum(mu), tuple(-part for part in mu))


def _text(mu: tuple[int, ...]) -> str:
    return ",".join(map(str, mu))


def one_loop_orbits(tuples: list) -> list:
    """(representative sorted by sort key, number of tuples) per orbit of the
    walked tuples under rearrangement, in sort-key order of representatives."""
    sizes = Counter(tuple(sorted(tup, key=_sort_key)) for tup in tuples)
    return sorted(sizes.items(), key=lambda item: tuple(_sort_key(piece) for piece in item[0]))


def one_loop_oracle(row: dict, mu: tuple[int, ...], orbits: list, d: int, z) -> tuple:
    """The tuple sum and the failure records of the orbit checks, orbit by
    orbit in one loop: size against the multinomial, centralizer ratio
    divisibility, contribution divisibility.  z is the centralizer order."""
    z_mu = z(mu)
    d_factorial = factorial(d)
    total = 0
    failures = []
    for rep, size in orbits:
        orbit = [_text(piece) for piece in rep]
        sigma = tuple(sorted(Counter(rep).values(), reverse=True))
        sigma_factorial = prod(factorial(s) for s in sigma)
        expected_size = d_factorial // sigma_factorial
        if size != expected_size:
            failures.append({
                "orbit": orbit,
                "relation": "orbit size = multinomial of sigma",
                "size": size,
                "expected": expected_size,
            })
        z_rep = prod(z(piece) for piece in rep)
        ratio, remainder = divmod(z_mu, z_rep)
        if remainder:
            ratio = Fraction(z_mu, z_rep)
        if ratio % sigma_factorial:
            failures.append({
                "orbit": list(orbit),
                "relation": "centralizer ratio is an integer divisible by the sigma factorials",
                "ratio": str(Fraction(ratio)),
                "sigma": _text(sigma),
            })
        contribution = size * ratio * prod(row[piece] for piece in rep)
        total += contribution
        if contribution % d_factorial:
            failures.append({
                "orbit": list(orbit),
                "relation": f"orbit contribution divisible by {d_factorial}",
                "contribution": str(Fraction(contribution)),
            })
    return total, failures
