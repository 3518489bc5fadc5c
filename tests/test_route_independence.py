"""Each identity is checked by two routes, and the check means something only
while the routes stay apart.  Each route runs here on a fresh cache under
sys.setprofile, which records the plethy functions it calls and the size of
every shape the memo reader mn._row is asked for."""

import sys

import pytest

from plethy import ROUTE_DIRECT, ROUTE_PLETHYSTIC, CharCache, boxplus_classfunction, partitions_of, symfunc

ABACUS = {"abacus.d_sign", "abacus.d_quotient", "abacus.d_core", "abacus._beads", "abacus._runners", "abacus._parts"}


def profile(route, *args):
    """The plethy functions route(*args) calls, as module.name, and the sizes of the shapes _row reads."""
    called, row_sizes = set(), []

    def record(frame, event, arg):
        if event == "call" and frame.f_globals.get("__name__", "").startswith("plethy."):
            name = frame.f_globals["__name__"].removeprefix("plethy.") + "." + frame.f_code.co_name
            called.add(name)
            if name == "mn._row":
                row_sizes.append(sum(frame.f_locals["lam"]))

    sys.setprofile(record)
    try:
        route(*args)
    finally:
        sys.setprofile(None)
    return called, row_sizes


@pytest.mark.parametrize("n, d", [(3, 2), (2, 3), (4, 2)])
def test_theorem1_routes(n, d):
    for lam in partitions_of(n):
        called, sizes = profile(boxplus_classfunction, lam, d, ROUTE_DIRECT, CharCache())
        # The direct route strips ribbons from the d*d*n-box shape, and nothing else.
        assert sizes and set(sizes) == {d * d * n}, lam
        assert "abacus.mask_ribbons" in called
        forbidden = {"symfunc._schur_power", "symfunc.multiply", "symfunc.hall_inner"} | ABACUS
        assert not called & forbidden, (lam, called & forbidden)

        called, sizes = profile(boxplus_classfunction, lam, d, ROUTE_PLETHYSTIC, CharCache())
        # The plethystic route pairs the power of lam's Schur function: rows of size n only.
        assert sizes and max(sizes) <= n, (lam, sizes)
        assert {"symfunc._schur_power", "symfunc.multiply", "symfunc.hall_inner"} <= called


@pytest.mark.parametrize("d", [2, 3])
def test_littlewood_routes(d):
    for m in range(7):
        for nu in partitions_of(m):
            called, _ = profile(symfunc.phi_d_littlewood, nu, d, CharCache())
            assert "symfunc.phi_d_power" not in called, nu
            assert "abacus.d_sign" in called

            called, _ = profile(lambda: symfunc.phi_d_power(symfunc.schur_to_power(nu, CharCache()), d))
            assert not called & ABACUS, (nu, called & ABACUS)
            assert "symfunc.phi_d_power" in called
