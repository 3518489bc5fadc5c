"""Class functions on symmetric groups, stored as symmetric functions.

The characteristic map identifies a class function of S_n with a degree-n
symmetric function, and a SymFunc stores exactly the class values F_mu, so
a class function here is a SymFunc whose values are its values at the
cycle types mu, zeros dropped.  The irreducible character of lam is the
Schur function schur_to_power(lam), the induction product is multiply, and
decompose reads the Schur expansion.  The subdivided and part-scaled class
functions are computed here.

Genuine characters have integer values; that is asserted where needed, never
assumed by the types.
"""

from __future__ import annotations

import functools
from fractions import Fraction

from . import symfunc
from .config import _check_positive
from .mn import CharCache, _row, mn_value
from .partitions import (
    Partition,
    _boxplus,
    _partitions_of,
    _scale,
    _union_power,
    centralizer_order,
    check_partition,
)
from .symfunc import SymFunc

ROUTE_DIRECT = "direct"
ROUTE_PLETHYSTIC = "plethystic"


def decompose(phi: SymFunc, cache: CharCache | None = None) -> dict[Partition, int | Fraction]:
    """Multiplicities of the irreducible characters in phi, in sort_key
    order; zeros omitted; an int where integral, a Fraction otherwise."""
    return symfunc.power_to_schur(phi, cache)


@functools.lru_cache(maxsize=256)
def _classes(core, n: int, d: int) -> tuple[Partition, ...]:
    """core(mu, d) for every mu in partitions_of(n), in that order, for a partitions core and a checked d."""
    return tuple(core(mu, d) for mu in _partitions_of(n))


def boxplus_classfunction(
    lam: Partition, d: int, route: str = ROUTE_DIRECT, cache: CharCache | None = None
) -> SymFunc:
    """The class function of S_n, n = |lam|, read off the grid-subdivided character.

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
    _check_positive("grid factor", d)
    n = sum(lam)
    if route == ROUTE_DIRECT:
        big = _boxplus(lam, d)
        # Stays on mn_value until ROADMAP item 13: tests/test_tracing_contract.py requires its calls.
        values = {mu: mn_value(big, cls, cache) for mu, cls in zip(_partitions_of(n), _classes(_boxplus, n, d))}
    elif route == ROUTE_PLETHYSTIC:
        power = symfunc._schur_power(lam, d, cache)
        pairs = zip(_partitions_of(n), _classes(_union_power, n, d))  # p_nu has the class value z_nu
        values = {mu: symfunc.hall_inner(power, SymFunc._of({nu: centralizer_order(nu)})) for mu, nu in pairs}
    else:
        raise ValueError(f"unknown route {route!r}, expected {ROUTE_DIRECT!r} or {ROUTE_PLETHYSTIC!r}")
    return SymFunc._of(values)


def scaled_classfunction(lam: Partition, d: int, cache: CharCache | None = None) -> SymFunc:
    """The class function of S_n, n = |lam|, whose value at mu is the
    character of shape d*lam at the class d*mu."""
    lam = check_partition(lam)
    _check_positive("scale factor", d)
    classes = _classes(_scale, sum(lam), d)
    row = _row(_scale(lam, d), classes, cache)
    return SymFunc._of({mu: row[cls] for mu, cls in zip(_partitions_of(sum(lam)), classes)})
