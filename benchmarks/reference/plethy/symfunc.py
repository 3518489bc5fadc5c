"""Sparse exact symmetric functions in the power-sum and Schur bases.

Elements are finite maps from partitions to rationals, tagged with the basis
they expand.  The power-sum basis is the canonical internal one: there
multiplication is multiset union of keys, the Hall pairing is diagonal, and
the variable-power substitution and its adjoint act monomially.  Schur is a
view reached through the character-table transition

    s_lam = sum over mu of (chi^lam_mu / z_mu) * p_mu

so every coefficient stays an exact Fraction; there is no floating point
anywhere in this module.

Conventions:

* psi_d replaces each variable by its d-th power; on power sums it sends
  p_mu to p of mu with every part multiplied by d.
* phi_d is the Hall adjoint of psi_d; on power sums it kills p_nu unless
  every part of nu is divisible by d, and otherwise divides the parts by d
  and multiplies the coefficient by d^(number of parts).
* phi_d on a Schur function with nonempty d-core is zero.  The adjoint
  computation forces this, and it is what makes the abacus formula
  (sign times the product of the quotient's Schur functions) total.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping

from . import mn
from .abacus import d_core, d_quotient, d_sign
from .partitions import (
    EMPTY,
    Partition,
    centralizer_order,
    check_partition,
    format_partition,
    parse_partition,
    partitions_of,
    scale,
    sort_key,
    union,
)

POWER = "p"
SCHUR = "s"
_BASES = (POWER, SCHUR)


def _clean(terms: Mapping[Partition, Fraction | int]) -> dict[Partition, Fraction]:
    out = {}
    for key, coeff in terms.items():
        coeff = Fraction(coeff)
        if coeff:
            out[check_partition(key)] = coeff
    return out


@dataclass(frozen=True)
class SymFunc:
    """Basis-tagged sparse expansion; zero coefficients are never stored."""

    basis: str
    terms: dict[Partition, Fraction] = field(default_factory=dict)

    def __post_init__(self):
        if self.basis not in _BASES:
            raise ValueError(f"unknown basis {self.basis!r}, expected one of {_BASES}")
        object.__setattr__(self, "terms", _clean(self.terms))

    @classmethod
    def zero(cls, basis: str = POWER) -> "SymFunc":
        return cls(basis, {})

    @classmethod
    def power(cls, mu: Partition, coeff: Fraction | int = 1) -> "SymFunc":
        return cls(POWER, {check_partition(mu): Fraction(coeff)})

    @classmethod
    def schur(cls, lam: Partition, coeff: Fraction | int = 1) -> "SymFunc":
        return cls(SCHUR, {check_partition(lam): Fraction(coeff)})

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, mu: Partition) -> Fraction:
        return self.terms.get(check_partition(mu), Fraction(0))

    def degrees(self) -> list[int]:
        return sorted({sum(key) for key in self.terms})

    def homogeneous_component(self, n: int) -> "SymFunc":
        return SymFunc(self.basis, {key: c for key, c in self.terms.items() if sum(key) == n})

    def __add__(self, other: "SymFunc") -> "SymFunc":
        if self.basis != other.basis:
            raise ValueError(f"cannot add {self.basis!r}-basis and {other.basis!r}-basis expansions directly")
        out = dict(self.terms)
        for key, coeff in other.terms.items():
            out[key] = out.get(key, Fraction(0)) + coeff
        return SymFunc(self.basis, out)

    def __sub__(self, other: "SymFunc") -> "SymFunc":
        return self + (-1) * other

    def __rmul__(self, scalar: Fraction | int) -> "SymFunc":
        scalar = Fraction(scalar)
        return SymFunc(self.basis, {key: scalar * coeff for key, coeff in self.terms.items()})

    def sorted_items(self) -> list[tuple[Partition, Fraction]]:
        return sorted(self.terms.items(), key=lambda item: sort_key(item[0]))

    def to_json_dict(self) -> dict:
        return {
            "basis": self.basis,
            "terms": {format_partition(key): format_rational(coeff) for key, coeff in self.sorted_items()},
        }

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "SymFunc":
        terms = {parse_partition(key): parse_rational(text) for key, text in data["terms"].items()}
        return cls(data["basis"], terms)


def format_rational(value: Fraction) -> str:
    """Decimal string, "num/den" only when the denominator is not 1."""
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def parse_rational(text: str) -> Fraction:
    return Fraction(text)


def schur_to_power(lam: Partition, cache: mn.CharCache | None = None) -> SymFunc:
    """Power-sum expansion of a single Schur function via character values."""
    lam = check_partition(lam)
    terms = {}
    for mu in partitions_of(sum(lam)):
        value = mn.mn_value(lam, mu, cache)
        if value:
            terms[mu] = Fraction(value, centralizer_order(mu))
    return SymFunc(POWER, terms)


def to_power(f: SymFunc, cache: mn.CharCache | None = None) -> SymFunc:
    """Convert any expansion to the power-sum basis."""
    if f.basis == POWER:
        return f
    out: dict[Partition, Fraction] = {}
    for lam, coeff in f.terms.items():
        for mu, c in schur_to_power(lam, cache).terms.items():
            out[mu] = out.get(mu, Fraction(0)) + coeff * c
    return SymFunc(POWER, out)


def power_to_schur(f: SymFunc, cache: mn.CharCache | None = None) -> SymFunc:
    """Schur expansion, degree by degree; the coefficient of lam is the Hall
    pairing of f with the Schur function of lam."""
    f = to_power(f, cache)
    out: dict[Partition, Fraction] = {}
    for n in f.degrees():
        component = f.homogeneous_component(n)
        for lam in partitions_of(n):
            coeff = sum(
                (c * mn.mn_value(lam, mu, cache) for mu, c in component.terms.items()),
                Fraction(0),
            )
            if coeff:
                out[lam] = coeff
    return SymFunc(SCHUR, out)


def multiply(f: SymFunc, g: SymFunc, cache: mn.CharCache | None = None) -> SymFunc:
    """Product, returned in the power-sum basis where it is union of keys."""
    f = to_power(f, cache)
    g = to_power(g, cache)
    out: dict[Partition, Fraction] = {}
    for mu, a in f.terms.items():
        for nu, b in g.terms.items():
            key = union(mu, nu)
            out[key] = out.get(key, Fraction(0)) + a * b
    return SymFunc(POWER, out)


def power_d(f: SymFunc, d: int, cache: mn.CharCache | None = None) -> SymFunc:
    """d-th multiplicative power of f, in the power-sum basis."""
    if d < 1:
        raise ValueError(f"exponent must be positive, got {d}")
    result = to_power(f, cache)
    for _ in range(d - 1):
        result = multiply(result, f, cache)
    return result


def hall_inner(f: SymFunc, g: SymFunc, cache: mn.CharCache | None = None) -> Fraction:
    """Hall inner product; power sums are orthogonal with squared norm z_mu."""
    f = to_power(f, cache)
    g = to_power(g, cache)
    if len(g.terms) < len(f.terms):
        f, g = g, f
    total = Fraction(0)
    for mu, a in f.terms.items():
        b = g.terms.get(mu)
        if b is not None:
            total += a * b * centralizer_order(mu)
    return total


def psi_d(f: SymFunc, d: int, cache: mn.CharCache | None = None) -> SymFunc:
    """Substitute each variable by its d-th power: p_mu goes to p_(d*mu)."""
    if d < 1:
        raise ValueError(f"substitution power must be positive, got {d}")
    f = to_power(f, cache)
    return SymFunc(POWER, {scale(mu, d): coeff for mu, coeff in f.terms.items()})


def phi_d_power(f: SymFunc, d: int, cache: mn.CharCache | None = None) -> SymFunc:
    """Hall adjoint of psi_d, computed monomially on the power-sum basis.

    p_nu maps to d^len(nu) * p_(nu/d) when every part of nu is divisible by
    d, and to zero otherwise.
    """
    if d < 1:
        raise ValueError(f"substitution power must be positive, got {d}")
    f = to_power(f, cache)
    out: dict[Partition, Fraction] = {}
    for nu, coeff in f.terms.items():
        if any(part % d for part in nu):
            continue
        key = tuple(part // d for part in nu)
        out[key] = out.get(key, Fraction(0)) + coeff * d ** len(nu)
    return SymFunc(POWER, out)


def phi_d_littlewood(nu: Partition, d: int, cache: mn.CharCache | None = None) -> SymFunc:
    """Image of a Schur function under phi_d by the abacus route.

    Zero when the d-core of nu is nonempty; otherwise the d-sign of nu times
    the product of the Schur functions of the d-quotient components.  A
    separate code path from phi_d_power on purpose: the exact agreement of
    the two is one of the headline verification sweeps.
    """
    if d < 1:
        raise ValueError(f"substitution power must be positive, got {d}")
    nu = check_partition(nu)
    if d_core(nu, d):
        return SymFunc.zero(POWER)
    sign = d_sign(nu, d)
    result = SymFunc.power(EMPTY, sign)
    for component in d_quotient(nu, d):
        result = multiply(result, schur_to_power(component, cache), cache)
    return result
