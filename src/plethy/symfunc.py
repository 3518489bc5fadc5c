"""Sparse exact symmetric functions, stored as class values on power sums.

A SymFunc maps partitions mu to class values F_mu = z_mu * [p_mu]f (the
power-sum coefficient times the centralizer order): the class function that
the characteristic map sends to f.  The Schur function s_lam, the sum over
mu of chi^lam_mu / z_mu * p_mu, is stored as the character row of lam, and
the operations keep int values int.  A product sends F_mu * G_kappa to the
multiset union nu with the integer weight z_nu / (z_mu * z_kappa); psi_d
(each variable to its d-th power) sends p_mu to p_(d*mu); its Hall adjoint
phi_d kills p_nu unless d divides every part of nu, and otherwise keeps F_nu
at nu/d.  phi_d of a Schur function with nonempty d-core is zero, which
makes the abacus formula (sign times the product of the quotient's Schur
functions) total.

Other values stay exact Fractions; there is no floating point here.  The
public constructor takes power-sum coefficients and checks every key, and
SymFunc.terms gives them back as {mu: Fraction}; the module's own results
are trusted and only drop zero values.  Schur expansions are plain
{partition: Fraction} dicts (power_to_schur, to_power).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from math import factorial
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


@dataclass(frozen=True, init=False)
class SymFunc:
    """Sparse class values {mu: F_mu}; zero values are never stored."""

    values: dict[Partition, int | Fraction]

    def __init__(self, terms: Mapping[Partition, Fraction | int] | None = None):
        """From power-sum coefficients {mu: [p_mu]f}; checks every key."""
        coeffs = {check_partition(key): Fraction(coeff) for key, coeff in (terms or {}).items()}
        object.__setattr__(self, "values", {mu: _exact(c * centralizer_order(mu)) for mu, c in coeffs.items() if c})

    @classmethod
    def _of(cls, values: Mapping[Partition, int | Fraction]) -> "SymFunc":
        """Trusted construction from partition keys and class values: only drops zeros."""
        f = object.__new__(cls)
        object.__setattr__(f, "values", {key: value for key, value in values.items() if value})
        return f

    @functools.cached_property
    def terms(self) -> dict[Partition, Fraction]:
        """The power-sum coefficients {mu: F_mu / z_mu}."""
        return {mu: Fraction(value, centralizer_order(mu)) for mu, value in self.values.items()}

    @classmethod
    def power(cls, mu: Partition, coeff: Fraction | int = 1) -> "SymFunc":
        return cls({tuple(mu): coeff})

    def is_zero(self) -> bool:
        return not self.values

    def degrees(self) -> list[int]:
        return sorted({sum(key) for key in self.values})

    def homogeneous_component(self, n: int) -> "SymFunc":
        return SymFunc._of({key: value for key, value in self.values.items() if sum(key) == n})

    def __add__(self, other: "SymFunc") -> "SymFunc":
        out = dict(self.values)
        for key, value in other.values.items():
            out[key] = out.get(key, 0) + value
        return SymFunc._of(out)

    def __sub__(self, other: "SymFunc") -> "SymFunc":
        return self + (-1) * other

    def __rmul__(self, scalar: Fraction | int) -> "SymFunc":
        scalar = _exact(Fraction(scalar))
        return SymFunc._of({key: scalar * value for key, value in self.values.items()})

    def sorted_items(self) -> list[tuple[Partition, Fraction]]:
        """The power-sum coefficients in sort_key order."""
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


def _exact(value: Fraction) -> int | Fraction:
    """An integral Fraction as an int, which keeps class-value arithmetic fast."""
    return value.numerator if value.denominator == 1 else value


def format_rational(value: Fraction) -> str:
    """Decimal string, "num/den" only when the denominator is not 1."""
    return str(Fraction(value))


def parse_rational(text: str) -> Fraction:
    return Fraction(text)


def schur_to_power(lam: Partition, cache: mn.CharCache | None = None) -> SymFunc:
    """The Schur function of lam: its class values are the character row of lam."""
    return SymFunc._of(mn.character_row(lam, cache))


def to_power(schur: Mapping[Partition, Fraction | int], cache: mn.CharCache | None = None) -> SymFunc:
    """Power-sum expansion of a Schur expansion; inverse of power_to_schur."""
    return sum((coeff * schur_to_power(lam, cache) for lam, coeff in schur.items()), SymFunc())


def power_to_schur(f: SymFunc, cache: mn.CharCache | None = None) -> dict[Partition, Fraction]:
    """Schur expansion {lam: coefficient} in sort_key order, zeros omitted, built
    degree by degree; the coefficient of lam is the Hall pairing of f with the Schur
    function of lam, read at f's support only, summed in n!-ths and divided once."""
    out: dict[Partition, Fraction] = {}
    for n in f.degrees():
        order = factorial(n)
        weighted = {mu: value * (order // centralizer_order(mu)) for mu, value in f.values.items() if sum(mu) == n}
        for lam in partitions_of(n):
            total = sum(weighted[mu] * value for mu, value in mn._row(lam, weighted, cache).items())
            if total:
                out[lam] = Fraction(total, order)
    return out


def multiply(f: SymFunc, g: SymFunc) -> SymFunc:
    """Product: p_mu * p_kappa is p at the multiset union nu, so F_mu * G_kappa
    lands at nu with the weight z_nu / (z_mu * z_kappa), which is the product
    over part values i of binomial(m_i(nu), m_i(mu))."""
    out: dict[Partition, int | Fraction] = {}
    right = [(kappa, b, centralizer_order(kappa)) for kappa, b in g.values.items()]
    for mu, a in f.values.items():
        z_mu = centralizer_order(mu)
        for kappa, b, z_kappa in right:
            nu = union(mu, kappa)
            out[nu] = out.get(nu, 0) + a * b * (centralizer_order(nu) // (z_mu * z_kappa))
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
    common = f.values.keys() & g.values.keys()
    return sum((Fraction(f.values[mu] * g.values[mu], centralizer_order(mu)) for mu in common), Fraction(0))


def psi_d(f: SymFunc, d: int) -> SymFunc:
    """Substitute each variable by its d-th power: p_mu goes to p_(d*mu), and
    z_(d*mu) = d^len(mu) * z_mu."""
    if d < 1:
        raise ValueError(f"substitution power must be positive, got {d}")
    return SymFunc._of({scale(mu, d): value * d ** len(mu) for mu, value in f.values.items()})


def phi_d_power(f: SymFunc, d: int) -> SymFunc:
    """Hall adjoint of psi_d, computed monomially on the power-sum basis.

    p_nu maps to d^len(nu) * p_(nu/d) when every part of nu is divisible by
    d, and to zero otherwise; as z_nu = d^len(nu) * z_(nu/d), F_(nu/d) = F_nu.
    """
    if d < 1:
        raise ValueError(f"substitution power must be positive, got {d}")
    divisible = (nu for nu in f.values if not any(part % d for part in nu))
    return SymFunc._of({tuple(part // d for part in nu): f.values[nu] for nu in divisible})


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
    result = SymFunc._of({EMPTY: sign})
    for component in d_quotient(nu, d):
        result = multiply(result, schur_to_power(component, cache))
    return result
