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
SymFunc.terms gives them back as {mu: Fraction}; module results drop zeros.
Schur expansions are {partition: int or Fraction} dicts (power_to_schur,
to_power).  Each cache memoizes s_lam^d (s_lam as d = 1) once; the engine
reads these in place and never changes them; schur_to_power copies them.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from math import factorial, gcd
from operator import mul
from typing import Mapping

from . import mn
from .abacus import d_quotient, d_sign
from .config import _check_positive
from .partitions import (
    EMPTY,
    Partition,
    _scale,
    centralizer_order,
    check_partition,
    partitions_of,
    union,
)


class SymFunc:
    """Sparse class values {mu: F_mu}; zero values are never stored."""

    values: dict[Partition, int | Fraction]

    def __init__(self, terms: Mapping[Partition, Fraction | int] | None = None):
        """From power-sum coefficients {mu: [p_mu]f}; checks every key."""
        coeffs = {check_partition(key): Fraction(coeff) for key, coeff in (terms or {}).items()}
        self.values = {mu: _exact(c * centralizer_order(mu)) for mu, c in coeffs.items() if c}

    @classmethod
    def _of(cls, values: Mapping[Partition, int | Fraction]) -> "SymFunc":
        """Trusted construction from partition keys and class values: only drops zeros."""
        f = object.__new__(cls)
        f.values = {key: value for key, value in values.items() if value}
        return f

    def __eq__(self, other: object) -> bool:
        return self.values == other.values if other.__class__ is self.__class__ else NotImplemented

    @functools.cached_property
    def terms(self) -> dict[Partition, Fraction]:
        """The power-sum coefficients {mu: F_mu / z_mu}."""
        return {mu: Fraction(value, centralizer_order(mu)) for mu, value in self.values.items()}

    def is_zero(self) -> bool:
        return not self.values

    def degrees(self) -> list[int]:
        return sorted({sum(key) for key in self.values})

    def __add__(self, other: "SymFunc") -> "SymFunc":
        out = dict(self.values)
        for key, value in other.values.items():
            out[key] = _exact(out.get(key, 0) + value)
        return SymFunc._of(out)

    def __sub__(self, other: "SymFunc") -> "SymFunc":
        return self + (-1) * other

    def __rmul__(self, scalar: Fraction | int) -> "SymFunc":
        scalar = _exact(Fraction(scalar))
        return SymFunc._of({key: _exact(scalar * value) for key, value in self.values.items()})


def _exact(value: Fraction) -> int | Fraction:
    """An integral Fraction as an int, which keeps class-value arithmetic fast."""
    return value.numerator if value.denominator == 1 else value


def format_rational(value: Fraction) -> str:
    """Decimal string, "num/den" only when the denominator is not 1."""
    return str(Fraction(value))


def schur_to_power(lam: Partition, cache: mn.CharCache | None = None) -> SymFunc:
    """The Schur function of lam: its class values are the character row of lam
    over partitions_of(|lam|), zeros dropped.  The checked copy for outside
    callers: checks lam, then copies the cache's memoized _schur_power(lam, 1)."""
    return SymFunc._of(_schur_power(check_partition(lam), 1, cache).values)


def to_power(schur: Mapping[Partition, Fraction | int], cache: mn.CharCache | None = None) -> SymFunc:
    """Power-sum expansion of a Schur expansion; inverse of power_to_schur.
    Sums coefficient times character row into one dict of class values."""
    out: dict[Partition, int | Fraction] = {}
    for lam, coeff in schur.items():
        if type(coeff) is not int:
            coeff = _exact(Fraction(coeff))
        for mu, value in _schur_power(check_partition(lam), 1, cache).values.items():
            out[mu] = out.get(mu, 0) + coeff * value
    return SymFunc._of(out)


def power_to_schur(f: SymFunc, cache: mn.CharCache | None = None) -> dict[Partition, int | Fraction]:
    """Schur expansion {lam: coefficient} in sort_key order, zeros omitted, built
    degree by degree; the coefficient of lam is the Hall pairing of f with the Schur
    function of lam, read at f's support only, summed in n!-ths and divided once:
    an int where integral, a Fraction otherwise."""
    out: dict[Partition, int | Fraction] = {}
    for n in f.degrees():
        order = factorial(n)
        weighted = {mu: value * (order // centralizer_order(mu)) for mu, value in f.values.items() if sum(mu) == n}
        for lam in partitions_of(n):
            total = sum(map(mul, weighted.values(), mn._row(lam, weighted, cache).values()))  # _row keeps the order
            if total:
                whole, remainder = divmod(total, order)
                out[lam] = Fraction(total, order) if remainder else whole
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
    _check_positive("exponent", d)
    result = f
    for _ in range(d - 1):
        result = multiply(result, f)
    return result


def _schur_power(lam: Partition, d: int, cache: mn.CharCache | None) -> SymFunc:
    """power_d(schur_to_power(lam, cache), d), built once per cache and kept in its _powers, read
    in place and never changed; lam and d must be checked.  At d = 1, lam's row via mn._row.  The engine's
    one schur_to_power call is at d >= 2: tests/test_tracing_contract.py needs the tracer to count it."""
    powers = (cache if cache is not None else mn._default_cache)._powers
    power = powers.get((lam, d))
    if power is None:
        if d == 1:
            power = SymFunc._of(mn._row(lam, partitions_of(sum(lam)), cache))
        else:
            power = power_d(schur_to_power(lam, cache), d)
        powers[lam, d] = power
    return power


def hall_inner(f: SymFunc, g: SymFunc) -> int | Fraction:
    """Hall inner product; power sums are orthogonal with squared norm z_mu.

    Sums F_mu * G_mu / z_mu over the classes of the smaller operand, in ints
    where z_mu divides and a Fraction for each nonzero remainder; an int when
    the pairing is integral."""
    small, large = sorted((f.values, g.values), key=len)
    whole, rest = 0, 0
    for mu, value in small.items():
        if mu in large:
            z_mu = centralizer_order(mu)
            quotient, remainder = divmod(value * large[mu], z_mu)
            whole += quotient
            if remainder:
                rest += Fraction(remainder, z_mu)
    return whole + _exact(rest)


def psi_d(f: SymFunc, d: int) -> SymFunc:
    """Substitute each variable by its d-th power: p_mu goes to p_(d*mu), and
    z_(d*mu) = d^len(mu) * z_mu."""
    _check_positive("substitution power", d)
    return SymFunc._of({_scale(mu, d): value * d ** len(mu) for mu, value in f.values.items()})


def phi_d_power(f: SymFunc, d: int) -> SymFunc:
    """Hall adjoint of psi_d, computed monomially on the power-sum basis.

    p_nu maps to d^len(nu) * p_(nu/d) when every part of nu is divisible by
    d, and to zero otherwise; as z_nu = d^len(nu) * z_(nu/d), F_(nu/d) = F_nu.
    d divides every part of nu iff it divides gcd(*nu); gcd() = 0 keeps the empty nu.
    """
    _check_positive("substitution power", d)
    return SymFunc._of({tuple(part // d for part in nu): value for nu, value in f.values.items() if not gcd(*nu) % d})


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
    for component in filter(None, d_quotient(nu, d)):  # s_() = 1
        result = multiply(result, _schur_power(component, 1, cache))
    return result
