"""Each identity is checked by two routes, and the check means something only
while the routes stay apart.  Each route runs here on a fresh cache under
sys.setprofile, which records the plethy functions it calls and the size of
every shape the memo reader mn._row is asked for.  ROUTES names each sweep's
routes by the module attributes the sweep looks them up under, and a route
that gives one wrong value must make its sweep's own report FAIL."""

import sys

import pytest

from plethy import (
    ROUTE_DIRECT,
    ROUTE_PLETHYSTIC,
    CharCache,
    SymFunc,
    boxplus_classfunction,
    characters,
    conjugate,
    format_partition,
    mn,
    mn_value,
    partitions_of,
    scale,
    symfunc,
    verify,
    verify_theorem2_div,
)

ABACUS = {"abacus.d_sign", "abacus.d_quotient", "abacus.d_core", "abacus._beads", "abacus._runners", "abacus._parts"}


def profile(route, *args, **kwargs):
    """The plethy functions route(*args, **kwargs) calls, as module.name, and the sizes of the shapes _row reads."""
    called, row_sizes = set(), []

    def record(frame, event, arg):
        if event == "call" and frame.f_globals.get("__name__", "").startswith("plethy."):
            name = frame.f_globals["__name__"].removeprefix("plethy.") + "." + frame.f_code.co_name
            called.add(name)
            if name == "mn._row":
                row_sizes.append(sum(frame.f_locals["lam"]))

    sys.setprofile(record)
    try:
        route(*args, **kwargs)
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
def test_littlewood_routes(monkeypatch, d):
    nus = [nu for m in range(7) for nu in partitions_of(m)]
    for nu in nus:
        called, _ = profile(symfunc.phi_d_littlewood, nu, d, CharCache())
        assert "symfunc.phi_d_power" not in called, nu
        assert "abacus.d_sign" in called

    # The sweep itself, with its abacus route stubbed to values computed beforehand:
    # what it still calls is its power-basis route.
    via_abacus = {nu: symfunc.phi_d_littlewood(nu, d, CharCache()) for nu in nus}
    monkeypatch.setattr(symfunc, "phi_d_littlewood", lambda nu, d, cache: via_abacus[nu])
    called, _ = profile(verify.verify_littlewood, 6, d, cache=CharCache())
    assert not called & ABACUS, called & ABACUS
    assert "symfunc.phi_d_power" in called
    report = verify.verify_littlewood(6, d, cache=CharCache())
    assert (report.status, report.cases_checked) == ("PASS", len(nus))


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


def route_is(name):
    """Picks boxplus_classfunction's calls on the route called name."""
    return lambda n, d, lam, factor, route, cache: route == name


def every_call(n, d, *args):
    return True


def big_shape(n, d, lam, classes, cache):
    """Picks _row's reads of the d*d*n-box shape: the ribbon-stripping route."""
    return sum(lam) == d * d * n


# Every sweep's routes, as (module, attribute the sweep looks the route up under
# when it runs, which of that attribute's calls are the route's at the sweep's n and d).
ROUTES = {
    "thm1": [
        (verify, "boxplus_classfunction", route_is(ROUTE_DIRECT)),
        (verify, "boxplus_classfunction", route_is(ROUTE_PLETHYSTIC)),
    ],
    "thm1-scaled": [(verify, "scaled_classfunction", every_call)],  # one route until ROADMAP item 4
    "littlewood": [(symfunc, "phi_d_littlewood", every_call), (symfunc, "phi_d_power", every_call)],
    "thm2-div": [(verify, "_row", big_shape), (symfunc, "_schur_power", every_call)],
    "thm2-vanish": [(verify, "_row", big_shape)],  # one route until ROADMAP item 4
    "oracle": [(verify, "_oracle", every_call), (verify, "_row", big_shape)],
}


def shifted(result):
    """result with one value moved by 1: a SymFunc's first stored value, the
    value at a row's first class, or the oracle's sum; None if there is none."""
    if isinstance(result, tuple):
        total, failures = result
        return total + 1, failures
    values = result.values if isinstance(result, SymFunc) else result
    if not values:
        return None
    key = next(iter(values))
    moved = {**values, key: values[key] + 1}
    return SymFunc._of(moved) if isinstance(result, SymFunc) else moved


def test_route_table_names_every_sweep():
    assert list(ROUTES) == list(verify.sweep_table())
    assert {name for name, routes in ROUTES.items() if len(routes) == 1} == {"thm1-scaled", "thm2-vanish"}
    for routes in ROUTES.values():
        assert all(callable(getattr(module, name)) for module, name, _ in routes)


@pytest.mark.parametrize("name, index", [(name, i) for name, routes in ROUTES.items() for i in range(len(routes))])
def test_one_wrong_route_value_fails_the_sweep(monkeypatch, name, index):
    sweep = verify.sweep_table()[name]
    n, d = 3, 2
    assert sweep.function(n, d, *sweep.limits, CharCache()).status == "PASS"
    module, attribute, picks = ROUTES[name][index]
    real, moved_at = getattr(module, attribute), []

    def mutant(*args):
        # Only the first of the route's calls that has a value gets one moved.
        result = real(*args)
        if not moved_at and picks(n, d, *args) and (moved := shifted(result)) is not None:
            moved_at.append(args)
            return moved
        return result

    monkeypatch.setattr(module, attribute, mutant)
    report = sweep.function(n, d, *sweep.limits, CharCache())
    assert moved_at and report.status == "FAIL", (name, attribute)


def conjugate_row(lam, d, cache=None):
    """A mutant of scaled_classfunction that reads the row of the conjugate of
    d*lam.  At odd d that is the class function times the sign character,
    which is still a character."""
    return SymFunc._of({mu: mn_value(conjugate(scale(lam, d)), scale(mu, d), cache) for mu in partitions_of(sum(lam))})


def test_conjugate_row_mutant_fails_thm1_scaled_at_even_d(monkeypatch):
    monkeypatch.setattr(verify, "scaled_classfunction", conjugate_row)
    assert verify.verify_theorem1_scaled(3, 2, cache=CharCache()).status == "FAIL"


@pytest.mark.xfail(strict=True, reason="thm1-scaled checks its values by one route (ROADMAP item 4)")
def test_conjugate_row_mutant_fails_thm1_scaled_default(monkeypatch):
    monkeypatch.setattr(verify, "scaled_classfunction", conjugate_row)
    assert verify.verify_theorem1_scaled(5, 3, cache=CharCache()).status == "FAIL"
