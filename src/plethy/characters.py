"""Class functions on symmetric groups and their symmetric-function avatars.

A class function of level n stores one value per cycle type, a total map over
partitions_of(n), as an int when integral and a Fraction otherwise.  The
characteristic map sends it to the symmetric function sum over mu of
value(mu)/z_mu * p_mu (the group-element sum collapsed class by class), and is
inverted by pairing with power sums.  A SymFunc stores exactly these class
values, F_mu = z_mu * [p_mu]f, so both maps are relabelings.  The map exchanges
the induction product with multiplication, which is how it is computed here.

Genuine characters have integer values; that is asserted where needed, never
assumed by the types.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping

from . import symfunc
from .mn import CharCache, character_row, mn_value
from .partitions import (
    Partition,
    boxplus,
    centralizer_order,
    check_partition,
    format_partition,
    parse_partition,
    partitions_of,
    scale,
    union_power,
)
from .symfunc import SymFunc, _exact

ROUTE_DIRECT = "direct"
ROUTE_PLETHYSTIC = "plethystic"


@dataclass(frozen=True)
class ClassFunction:
    """Level n plus a total map {partitions of n} -> int, or Fraction where not integral."""

    n: int
    values: dict[Partition, int | Fraction] = field(default_factory=dict)

    def __post_init__(self):
        expected = partitions_of(self.n)
        coerced = {}
        for mu in expected:
            if mu not in self.values:
                raise ValueError(f"class function of level {self.n} missing value at {mu}")
            value = self.values[mu]
            coerced[mu] = value if type(value) is int else _exact(Fraction(value))
        if len(self.values) != len(expected):
            extra = set(self.values) - set(expected)
            raise ValueError(f"class function of level {self.n} has spurious keys {sorted(extra)}")
        object.__setattr__(self, "values", coerced)

    @classmethod
    def from_partial(cls, n: int, values: Mapping[Partition, Fraction | int]) -> "ClassFunction":
        """Build from a sparse map, filling unmentioned classes with zero."""
        full = dict.fromkeys(partitions_of(n), 0)
        for mu, value in values.items():
            mu = check_partition(mu)
            if sum(mu) != n:
                raise ValueError(f"key {mu} is not a partition of {n}")
            full[mu] = value
        return cls(n, full)

    @classmethod
    def zero(cls, n: int) -> "ClassFunction":
        return cls.from_partial(n, {})

    def __add__(self, other: "ClassFunction") -> "ClassFunction":
        if self.n != other.n:
            raise ValueError(f"level mismatch: {self.n} vs {other.n}")
        return ClassFunction(self.n, {mu: self.values[mu] + other.values[mu] for mu in self.values})

    def __sub__(self, other: "ClassFunction") -> "ClassFunction":
        return self + (-1) * other

    def __rmul__(self, scalar: Fraction | int) -> "ClassFunction":
        scalar = Fraction(scalar)
        return ClassFunction(self.n, {mu: scalar * value for mu, value in self.values.items()})

    def is_integer_valued(self) -> bool:
        return all(value.denominator == 1 for value in self.values.values())

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "values": {
                format_partition(mu): symfunc.format_rational(self.values[mu]) for mu in partitions_of(self.n)
            },
        }

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "ClassFunction":
        try:
            n, values = data["n"], data["values"]
        except KeyError as exc:
            raise ValueError(f"class function JSON has no {exc.args[0]!r} field") from None
        return cls(int(n), {parse_partition(key): symfunc.parse_rational(text) for key, text in values.items()})


def irreducible_character(lam: Partition, cache: CharCache | None = None) -> ClassFunction:
    """The irreducible character indexed by lam, as a class function."""
    row = character_row(lam, cache)
    return ClassFunction(sum(lam), row)


def ch(phi: ClassFunction) -> SymFunc:
    """Characteristic map: sum of value(mu)/z_mu * p_mu over cycle types,
    whose class values are the values of phi."""
    return SymFunc._of(phi.values)


def ch_inverse(f: SymFunc, n: int) -> ClassFunction:
    """Inverse characteristic map; the value at mu is the pairing with p_mu,
    the class value F_mu."""
    if any(sum(key) != n for key in f.values):
        raise ValueError(f"not homogeneous of degree {n}: degrees {f.degrees()}")
    return ClassFunction(n, {mu: f.values.get(mu, 0) for mu in partitions_of(n)})


def induction_product(phi: ClassFunction, psi: ClassFunction) -> ClassFunction:
    """Induce the outer tensor product up to the symmetric group on n+m letters.

    Computed on the symmetric-function side, where the characteristic map
    turns it into plain multiplication.
    """
    return ch_inverse(symfunc.multiply(ch(phi), ch(psi)), phi.n + psi.n)


def decompose(phi: ClassFunction, cache: CharCache | None = None) -> dict[Partition, Fraction]:
    """Multiplicities of the irreducible characters in phi, in sort_key
    order; zeros omitted."""
    return symfunc.power_to_schur(ch(phi), cache)


def boxplus_classfunction(
    lam: Partition, d: int, route: str = ROUTE_DIRECT, cache: CharCache | None = None
) -> ClassFunction:
    """The level-n class function read off the grid-subdivided character.

    Its value at mu is the character of shape boxplus(lam, d) at the class
    boxplus(mu, d), sitting inside the character table of the symmetric
    group on d*d*n letters.  Two routes:

    * direct: ribbon-stripping evaluation at the subdivided class;
    * plethystic: the Hall pairing of the d-th power of the Schur expansion
      of lam with p at the d-fold multiset union of mu, scaled to the same
      class.

    The routes must agree exactly; the verification sweeps assert it.
    """
    lam = check_partition(lam)
    if d < 1:
        raise ValueError(f"grid factor must be positive, got {d}")
    n = sum(lam)
    if route == ROUTE_DIRECT:
        big = boxplus(lam, d)
        values = {mu: mn_value(big, boxplus(mu, d), cache) for mu in partitions_of(n)}
    elif route == ROUTE_PLETHYSTIC:
        power = symfunc.power_d(symfunc.schur_to_power(lam, cache), d)
        values = {}
        for mu in partitions_of(n):
            nu = union_power(mu, d)  # p_nu has the class value z_nu
            values[mu] = symfunc.hall_inner(power, SymFunc._of({nu: centralizer_order(nu)}))
    else:
        raise ValueError(f"unknown route {route!r}, expected {ROUTE_DIRECT!r} or {ROUTE_PLETHYSTIC!r}")
    return ClassFunction(n, values)


def scaled_classfunction(lam: Partition, d: int, cache: CharCache | None = None) -> ClassFunction:
    """The level-n class function whose value at mu is the character of
    shape d*lam at the class d*mu."""
    lam = check_partition(lam)
    n, big = sum(lam), scale(lam, d)
    return ClassFunction(n, {mu: mn_value(big, scale(mu, d), cache) for mu in partitions_of(n)})
