"""Each identity is checked by two routes, and the check means something only
while the routes stay apart.  Each route runs here on a fresh cache under
sys.setprofile, which records the plethy functions it calls and the size of
every shape the memo reader mn._row is asked for."""

import sys

import pytest

from plethy import (
    ROUTE_DIRECT,
    ROUTE_PLETHYSTIC,
    CharCache,
    boxplus_classfunction,
    characters,
    format_partition,
    mn,
    partitions_of,
    symfunc,
    verify,
    verify_theorem2_div,
)

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

            # The sweep's own expression (verify.verify_littlewood).
            called, _ = profile(lambda cache: symfunc.phi_d_power(symfunc._schur_power(nu, 1, cache), d), CharCache())
            assert not called & ABACUS, (nu, called & ABACUS)
            assert "symfunc.phi_d_power" in called


@pytest.mark.parametrize("n, d", [(3, 2), (2, 3), (4, 2)])
def test_hall_summation_oracle_route(n, d):
    for lam in partitions_of(n):
        for mu in partitions_of(d * n):
            called, sizes = profile(verify.hall_summation_oracle, lam, mu, d, CharCache())
            # The oracle sums over lam's own row: rows of size n only, never the d*d*n-box shape.
            assert sizes and max(sizes) <= n, (lam, mu, sizes)
            assert "symfunc._schur_power" not in called, (lam, mu)


@pytest.mark.parametrize("n, d", [(3, 2), (2, 3), (4, 2)])
def test_theorem2_div_pairing_route(n, d):
    for lam in partitions_of(n):
        called, sizes = profile(symfunc._schur_power, lam, d, CharCache())
        # thm2-div's pairing reads the power of lam's Schur function: rows of size n only.
        assert sizes and max(sizes) <= n, (lam, sizes)
        assert not called & ABACUS, (lam, called & ABACUS)


@pytest.mark.parametrize("n, d", [(2, 2), (3, 2), (2, 3)])
def test_theorem2_div_pairing_does_not_read_the_stripped_shape(monkeypatch, n, d):
    real = mn._row

    def perturbed(lam, classes, cache):
        # Off by one at every class of the d*d*n-box shape lambda boxplus d, nowhere else.
        row = real(lam, classes, cache)
        return {mu: value + 1 for mu, value in row.items()} if sum(lam) == d * d * n else row

    for module in (mn, characters, verify):  # every module that binds _row
        monkeypatch.setattr(module, "_row", perturbed)
    report = verify_theorem2_div(n, d, cache=CharCache())
    relation = "ribbon-stripping value = Hall pairing"
    failed = {(failure["lambda"], failure["mu"]) for failure in report.failures if failure["relation"] == relation}
    mus = partitions_of(d * n)
    assert failed == {(format_partition(lam), format_partition(mu)) for lam in partitions_of(n) for mu in mus}
