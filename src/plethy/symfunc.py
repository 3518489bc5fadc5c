"""Sparse exact symmetric functions, expanded in power sums.

A SymFunc is a finite map from partitions mu to the rational coefficients of
the power sums p_mu.  That is the one representation used for computing:
multiplication is multiset union of keys, the Hall pairing is diagonal, and
the variable-power substitution and its adjoint act monomially.  Schur
expansions are plain {partition: Fraction} dicts, produced by power_to_schur
and turned back into power sums by to_power, through the character-table
transition

    s_lam = sum over mu of (chi^lam_mu / z_mu) * p_mu

so every coefficient stays an exact Fraction; there is no floating point
anywhere in this module.  The public SymFunc constructor (to_power uses it
too) checks every key and makes every coefficient a Fraction; the module's
own results are trusted and only drop their zero coefficients.

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
from .abacus import d_quotient, d_sign
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


@dataclass(frozen=True)
class SymFunc:
    """Sparse power-sum expansion; zero coefficients are never stored."""

    terms: dict[Partition, Fraction] = field(default_factory=dict)

    def __post_init__(self):
        terms = {key: Fraction(coeff) for key, coeff in self.terms.items()}
        object.__setattr__(self, "terms", {check_partition(key): c for key, c in terms.items() if c})

    @classmethod
    def _of(cls, terms: Mapping[Partition, Fraction]) -> "SymFunc":
        """Trusted construction from partition keys and Fractions: only drops zeros."""
        f = object.__new__(cls)
        object.__setattr__(f, "terms", {key: coeff for key, coeff in terms.items() if coeff})
        return f

    @classmethod
    def power(cls, mu: Partition, coeff: Fraction | int = 1) -> "SymFunc":
        return cls({tuple(mu): coeff})

    def is_zero(self) -> bool:
        return not self.terms

    def degrees(self) -> list[int]:
        return sorted({sum(key) for key in self.terms})

    def homogeneous_component(self, n: int) -> "SymFunc":
        return SymFunc._of({key: c for key, c in self.terms.items() if sum(key) == n})

    def __add__(self, other: "SymFunc") -> "SymFunc":
        out = dict(self.terms)
        for key, coeff in other.terms.items():
            out[key] = out.get(key, Fraction(0)) + coeff
        return SymFunc._of(out)

    def __sub__(self, other: "SymFunc") -> "SymFunc":
        return self + (-1) * other

    def __rmul__(self, scalar: Fraction | int) -> "SymFunc":
        scalar = Fraction(scalar)
        return SymFunc._of({key: scalar * coeff for key, coeff in self.terms.items()})

    def sorted_items(self) -> list[tuple[Partition, Fraction]]:
        return sorted(self.terms.items(), key=lambda item: sort_key(item[0]))

    def to_json_dict(self) -> dict:
        return {
            "basis": "p",
            "terms": {format_partition(key): format_rational(coeff) for key, coeff in self.sorted_items()},
        }

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "SymFunc":
        try:
            basis, terms = data["basis"], data["terms"]
        except KeyError as exc:
            raise ValueError(f"symmetric function JSON has no {exc.args[0]!r} field") from None
        if basis != "p":
            raise ValueError(f"unknown basis {basis!r}, expected 'p' (power sums)")
        return cls({parse_partition(key): parse_rational(text) for key, text in terms.items()})


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
    row = mn.character_row(lam, cache)
    return SymFunc._of({mu: Fraction(value, centralizer_order(mu)) for mu, value in row.items()})


def to_power(schur: Mapping[Partition, Fraction | int], cache: mn.CharCache | None = None) -> SymFunc:
    """Power-sum expansion of a Schur expansion; inverse of power_to_schur."""
    out: dict[Partition, Fraction] = {}
    for lam, coeff in schur.items():
        for mu, c in schur_to_power(lam, cache).terms.items():
            out[mu] = out.get(mu, Fraction(0)) + coeff * c
    return SymFunc(out)


def power_to_schur(f: SymFunc, cache: mn.CharCache | None = None) -> dict[Partition, Fraction]:
    """Schur expansion {lam: coefficient} in sort_key order, zeros omitted,
    built degree by degree; the coefficient of lam is the Hall pairing of f
    with the Schur function of lam."""
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
    return out


def multiply(f: SymFunc, g: SymFunc) -> SymFunc:
    """Product; on power sums it is multiset union of keys."""
    out: dict[Partition, Fraction] = {}
    for mu, a in f.terms.items():
        for nu, b in g.terms.items():
            key = union(mu, nu)
            out[key] = out.get(key, Fraction(0)) + a * b
    return SymFunc._of(out)


def power_d(f: SymFunc, d: int) -> SymFunc:
    """d-th multiplicative power of f."""
    if d < 1:
        raise ValueError(f"exponent must be positive, got {d}")
    result = f
    for _ in range(d - 1):
        result = multiply(result, f)
    return result


def hall_inner(f: SymFunc, g: SymFunc) -> Fraction:
    """Hall inner product; power sums are orthogonal with squared norm z_mu."""
    if len(g.terms) < len(f.terms):
        f, g = g, f
    total = Fraction(0)
    for mu, a in f.terms.items():
        b = g.terms.get(mu)
        if b is not None:
            total += a * b * centralizer_order(mu)
    return total


def psi_d(f: SymFunc, d: int) -> SymFunc:
    """Substitute each variable by its d-th power: p_mu goes to p_(d*mu)."""
    if d < 1:
        raise ValueError(f"substitution power must be positive, got {d}")
    return SymFunc._of({scale(mu, d): coeff for mu, coeff in f.terms.items()})


def phi_d_power(f: SymFunc, d: int) -> SymFunc:
    """Hall adjoint of psi_d, computed monomially on the power-sum basis.

    p_nu maps to d^len(nu) * p_(nu/d) when every part of nu is divisible by
    d, and to zero otherwise.
    """
    if d < 1:
        raise ValueError(f"substitution power must be positive, got {d}")
    out: dict[Partition, Fraction] = {}
    for nu, coeff in f.terms.items():
        if any(part % d for part in nu):
            continue
        key = tuple(part // d for part in nu)
        out[key] = out.get(key, Fraction(0)) + coeff * d ** len(nu)
    return SymFunc._of(out)


def phi_d_littlewood(nu: Partition, d: int, cache: mn.CharCache | None = None) -> SymFunc:
    """Image of a Schur function under phi_d by the abacus route.

    Zero when the d-core of nu is nonempty; otherwise the d-sign of nu times
    the product of the Schur functions of the d-quotient components.  A
    separate code path from phi_d_power on purpose: the exact agreement of
    the two is one of the headline verification sweeps.
    """
    sign = d_sign(nu, d)
    if sign is None:
        return SymFunc()
    result = SymFunc._of({EMPTY: Fraction(sign)})
    for component in d_quotient(nu, d):
        result = multiply(result, schur_to_power(component, cache))
    return result
