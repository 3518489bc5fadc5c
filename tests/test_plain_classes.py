"""SymFunc, VerificationReport and Config are plain classes.

Each is equal to an instance of the same class with equal fields and to
nothing else, is unhashable, and keeps its constructor, defaults and checks.
A class function of a symmetric group is a SymFunc holding its values, so
the SymFunc rows cover class functions too.
"""

from fractions import Fraction

import pytest

from plethy import Config, SymFunc, VerificationReport
from plethy.symfunc import schur_to_power

# name: (build one instance, build one that differs in a single field)
EXAMPLES = {
    "SymFunc": (lambda: SymFunc({(2,): Fraction(1, 2), (1,): 3}), lambda: SymFunc({(2,): Fraction(1, 2)})),
    "VerificationReport": (
        lambda: VerificationReport("Thm1", {"n": 2, "d": 2}, 2, [{"relation": "value = 0"}], 7),
        lambda: VerificationReport("Thm1", {"n": 2, "d": 2}, 2, [{"relation": "value = 0"}], 8),
    ),
    "Config": (
        lambda: Config(cache_path="mn.txt", thm1_n=4, output_format="csv"),
        lambda: Config(cache_path="mn.txt", thm1_n=4, output_format="json"),
    ),
}
BUILDERS = pytest.mark.parametrize("build, build_other", EXAMPLES.values(), ids=EXAMPLES)


@BUILDERS
def test_equal_fields_compare_equal(build, build_other):
    first, second = build(), build()
    assert first is not second
    assert first == second and not first != second


@BUILDERS
def test_a_different_field_compares_unequal(build, build_other):
    assert build() != build_other() and not build() == build_other()


@BUILDERS
def test_other_types_compare_unequal(build, build_other):
    instance = build()
    subclass = type("Sub", (type(instance),), {})
    twin = object.__new__(subclass)
    twin.__dict__.update(vars(instance))
    others = [None, 0, "x", vars(instance), twin, *(make() for make, _ in EXAMPLES.values() if make is not build)]
    for other in others:
        assert instance != other and other != instance


@BUILDERS
def test_unhashable(build, build_other):
    with pytest.raises(TypeError):
        hash(build())


def test_keyword_construction():
    overrides = {
        "cache_path": "mn.txt",
        "max_table_n": 7,
        "thm1_n": 4,
        "thm1_d": 2,
        "littlewood_size": 5,
        "thm2_n": 3,
        "thm2_d": 2,
        "output_format": "csv",
    }
    config = Config(**overrides)
    assert {name: getattr(config, name) for name in overrides} == overrides
    assert config == Config(*overrides.values())
    assert config.to_text() == "".join(f"{name} = {value}\n" for name, value in overrides.items())
    report = VerificationReport(theorem="Thm1", params={"n": 1}, cases_checked=1)
    assert report == VerificationReport("Thm1", {"n": 1}, 1)
    assert (report.failures, report.elapsed_ms, report.status) == ([], 0, "PASS")


def test_config_defaults_fill_the_cache_path(tmp_path, monkeypatch):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    config = Config()
    assert config.cache_path == str(tmp_path / "plethy" / "mn_cache.txt")
    assert (config.max_table_n, config.thm1_n, config.output_format) == (18, 5, "json")


def test_reports_do_not_share_a_default_failures_list():
    first, second = VerificationReport("Thm1", {}, 0), VerificationReport("Thm1", {}, 0)
    first.failures.append({"relation": "value = 0"})
    assert second.failures == [] and second.status == "PASS"


def test_class_function_coerces_to_int_or_fraction():
    source = {(2,): Fraction(1), (1, 1): Fraction(1, 4)}
    phi = SymFunc(source)
    assert phi.values == {(2,): 2, (1, 1): Fraction(1, 2)}
    assert [type(value) for value in phi.values.values()] == [int, Fraction]
    source[(2,)] = 5
    assert phi.values[(2,)] == 2


def test_symfunc_equality_ignores_the_cached_terms():
    first, second = schur_to_power((2, 1)), schur_to_power((2, 1))
    assert first.terms == {(3,): Fraction(-1, 3), (1, 1, 1): Fraction(1, 3)}
    assert "terms" in vars(first) and "terms" not in vars(second)
    assert first == second
