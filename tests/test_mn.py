import inspect
import os
import random
import re
import sys
import threading
import time

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from plethy import (
    CacheFormatError,
    CharCache,
    DegreeMismatchError,
    PartitionError,
    boxplus,
    character_table,
    conjugate,
    mn,
    mn_value,
    partitions_of,
    power_d,
    schur_to_power,
)
from plethy.abacus import decode_mask, encode_mask
from plethy.verify import verify_theorem1


def same_size_pair(shapes):
    return st.tuples(st.sampled_from(shapes), st.sampled_from(shapes))


@pytest.fixture
def recursion_limit():
    """Restores the recursion limit, which the kernel raises for long classes."""
    limit = sys.getrecursionlimit()
    yield limit
    sys.setrecursionlimit(limit)


class TestMnValue:
    def test_examples(self):
        assert mn_value((2, 2), (2, 2)) == 2
        assert mn_value((2, 2), (4,)) == 0

    def test_trivial_row(self):
        for n in range(9):
            for rho in partitions_of(n):
                assert mn_value((n,) if n else (), rho) == 1

    def test_sign_row(self):
        for n in range(1, 8):
            for rho in partitions_of(n):
                assert mn_value((1,) * n, rho) == (-1) ** (n - len(rho))

    def test_degree_mismatch(self):
        with pytest.raises(DegreeMismatchError, match="degree mismatch"):
            mn_value((2, 1), (2, 2))

    def test_against_tabloid_table(self):
        for n in range(1, 6):
            table = oracles.tabloid_character_table(n)
            for lam in partitions_of(n):
                for mu in partitions_of(n):
                    assert mn_value(lam, mu) == table[lam][mu], (lam, mu)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=0, max_value=20).map(oracles.partitions_desc).flatmap(same_size_pair))
    def test_matches_partition_kernel(self, pair):
        lam, mu = pair
        assert mn_value(lam, mu, CharCache()) == oracles.partition_mn(lam, mu)

    def test_shared_memo_matches_partition_kernel(self):
        # One memo across sizes and cycle types, so suffix tables filled by
        # one pair are read by others.
        pairs = [(lam, mu) for n in range(10) for lam in partitions_of(n) for mu in partitions_of(n)]
        random.Random(2022).shuffle(pairs)
        cache, memo = CharCache(), {}
        for lam, mu in pairs:
            assert mn_value(lam, mu, cache) == oracles.partition_mn(lam, mu, memo), (lam, mu)

    def test_dimensions_match_tableau_counts(self):
        for n in range(1, 6):
            for lam in partitions_of(n):
                assert mn_value(lam, (1,) * n) == oracles.syt_count(lam)

    def test_classes_longer_than_the_recursion_limit(self, recursion_limit):
        # The kernel recurses once per part; at the default limit of 1,000
        # these raised RecursionError.
        start = time.perf_counter()
        assert mn_value((2000,), (1,) * 2000, CharCache()) == 1
        assert mn_value((1,) * 2000, (1,) * 2000, CharCache()) == 1
        assert time.perf_counter() - start < 10

    def test_long_mixed_class_under_a_lowered_limit(self, recursion_limit):
        nu, rho = (6, 5, 5, 4, 3, 3, 2, 2, 1, 1), (3, 2, 2) + (1,) * 25
        expected = oracles.partition_mn(nu, rho)
        assert expected != 0
        # Fewer free frames than the class has parts.
        lowered = len(inspect.stack(0)) + 20
        sys.setrecursionlimit(lowered)
        assert mn_value(nu, rho, CharCache()) == expected
        assert sys.getrecursionlimit() > lowered


class TestCharacterTable:
    def test_tiny_tables(self):
        assert character_table(1) == [[1]]
        assert character_table(2) == [[1, 1], [-1, 1]]
        table = character_table(3)
        assert table[partitions_of(3).index((2, 1))] == [-1, 0, 2]

    def test_row_orthogonality(self):
        from fractions import Fraction

        from plethy import centralizer_order

        for n in range(1, 8):
            parts = partitions_of(n)
            rows = character_table(n)
            for a, row_a in zip(parts, rows):
                for b, row_b in zip(parts, rows):
                    total = sum(
                        Fraction(x * y, centralizer_order(mu))
                        for x, y, mu in zip(row_a, row_b, parts)
                    )
                    assert total == (1 if a == b else 0)

    def test_column_orthogonality(self):
        from plethy import centralizer_order

        for n in range(1, 8):
            parts = partitions_of(n)
            rows = character_table(n)
            for i, mu in enumerate(parts):
                for j, nu in enumerate(parts):
                    total = sum(row[i] * row[j] for row in rows)
                    assert total == (centralizer_order(mu) if mu == nu else 0)

    def test_conjugation_twist(self):
        # A fresh cache per side: one shared cache would answer the second
        # side from the conjugate its first miss stored.
        for n in range(1, 8):
            for lam in partitions_of(n):
                for mu in partitions_of(n):
                    twisted = mn_value(conjugate(lam), mu, CharCache())
                    assert twisted == (-1) ** (n - len(mu)) * mn_value(lam, mu, CharCache())

    def test_matches_partition_kernel(self):
        memo = {}
        for n in range(11):
            for lam, row in zip(partitions_of(n), character_table(n, cache=CharCache())):
                assert row == [oracles.partition_mn(lam, mu, memo) for mu in partitions_of(n)], lam

    def test_size_limit(self):
        with pytest.raises(ValueError, match="table too large.*18"):
            character_table(19)
        with pytest.raises(ValueError, match="limit 4"):
            character_table(5, max_n=4)


class TestCharacterRow:
    def test_matches_mn_value_in_partitions_of_order(self):
        for n in range(11):
            for lam in partitions_of(n):
                row = {mu: mn_value(lam, mu) for mu in partitions_of(n)}
                values = schur_to_power(lam).values
                assert list(values) == [mu for mu in partitions_of(n) if row[mu]]
                assert values == {mu: value for mu, value in row.items() if value}

    def test_invalid_shape_rejected_before_evaluation(self):
        cache = CharCache()
        mn_value((2, 1), (1, 1, 1), cache)
        before = len(cache)
        with pytest.raises(PartitionError):
            schur_to_power((1, 2), cache)
        assert len(cache) == before
        # Also once the row of (2, 1) is memoized: (2, True) and (2.0, 1)
        # hash equal to (2, 1).
        schur_to_power((2, 1), cache)
        before = len(cache)
        for bad in [(1, 2), (2, True), (2.0, 1)]:
            with pytest.raises(PartitionError):
                schur_to_power(bad, cache)
        assert len(cache) == before

    def test_each_call_returns_a_fresh_symfunc(self):
        cache = CharCache()
        first, second = schur_to_power((3, 1), cache), schur_to_power((3, 1), cache)
        assert first == second and first.values is not second.values
        expected = dict(second.values)
        first.values[(4,)] += 5
        del first.values[(1, 1, 1, 1)]
        assert second.values == expected
        assert schur_to_power((3, 1), cache).values == expected
        # power_d(f, 1) is f itself.
        power = power_d(schur_to_power((3, 1), cache), 1)
        power.values.clear()
        assert schur_to_power((3, 1), cache).values == expected

    def test_one_row_read_per_shape_and_cache(self, monkeypatch):
        reads, row = [], mn._row

        def counted(lam, classes, cache):
            reads.append(lam)
            return row(lam, classes, cache)

        monkeypatch.setattr(mn, "_row", counted)
        shapes = [(3, 1), (2, 2), (4, 2, 1), (1,), ()]
        cache = CharCache()
        for _ in range(3):
            for lam in shapes:
                schur_to_power(lam, cache)
        assert sorted(reads) == sorted(shapes)
        schur_to_power((3, 1), CharCache())
        assert reads.count((3, 1)) == 2


class TestCharCache:
    def test_purity_cold_vs_warm(self):
        cold = CharCache()
        warm = CharCache()
        for lam in partitions_of(5):
            for mu in partitions_of(5):
                expected = mn_value(lam, mu, cold)
                assert mn_value(lam, mu, warm) == expected
                assert mn_value(lam, mu, warm) == expected

    def test_persistence_round_trip(self, tmp_path):
        path = tmp_path / "cache.txt"
        cache = CharCache(path)
        computed = {(lam, mu): mn_value(lam, mu, cache) for lam in partitions_of(4) for mu in partitions_of(4)}
        cache.flush()
        reloaded = CharCache(path)
        loaded = len(reloaded)
        assert loaded > 0
        for (lam, mu), value in computed.items():
            assert mn_value(lam, mu, reloaded) == value
        # Nothing was recomputed: every value came from the file.
        assert len(reloaded) == loaded

    def test_disk_format(self, tmp_path):
        path = tmp_path / "cache.txt"
        cache = CharCache(path)
        assert mn_value((4, 4), (2, 2, 2, 2), cache) == 6
        cache.flush()
        assert path.read_text() == "4,4|2,2,2,2=6\n"

    def test_duplicate_lines_must_agree(self, tmp_path):
        path = tmp_path / "cache.txt"
        path.write_text("4,4|2,2,2,2=6\n4,4|2,2,2,2=6\n")
        cache = CharCache(path)
        assert mn_value((4, 4), (2, 2, 2, 2), cache) == 6 and len(cache) == 1
        path.write_text("4,4|2,2,2,2=6\n4,4|2,2,2,2=7\n")
        with pytest.raises(CacheFormatError):
            CharCache(path)

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "cache.txt"
        path.write_text("not a cache line\n4,4|2,2,2,2=6\n")
        cache = CharCache(path)
        assert mn_value((4, 4), (2, 2, 2, 2), cache) == 6 and len(cache) == 1
        assert cache.file_stats["malformed_lines"] == 1

    @pytest.mark.parametrize(
        "line",
        [
            "garbage\n",
            "4,4|2,2,2,2\n",  # no value
            "4,4|2,2,2,2=six\n",
            "4,4=6\n",  # no cycle type
            "4,4|2,2|2,2=6\n",
            "1,2|3=1\n",  # not a partition
            "3|2=5\n",  # |nu| != |rho|
            "\xe9|1=1\n",  # not ASCII
            "3,3|3,3=-",  # torn: no newline
            "3,3|3,3=1",  # torn, though its text parses
        ],
    )
    def test_each_malformed_line_is_skipped_and_counted(self, tmp_path, line):
        path = tmp_path / "cache.txt"
        path.write_text("4,4|2,2,2,2=6\n\n" + line, encoding="latin-1")
        cache = CharCache(path)
        assert mn_value((4, 4), (2, 2, 2, 2), cache) == 6
        assert len(cache) == 1
        assert cache.file_stats == {
            "bytes": path.stat().st_size,
            "lines": 3,
            "duplicate_lines": 0,
            "malformed_lines": 1,
            "largest_n": 8,
        }

    def test_loaded_fields_are_checked_once_and_shared(self, tmp_path):
        path = tmp_path / "cache.txt"
        path.write_text("2,1|2,1=-1\n2,1|1,1,1=2\n1,1,1|2,1=1\n")
        tables = CharCache(path)._values
        assert list(tables) == [(2, 1), (1, 1, 1)]
        assert tables[2, 1] == {encode_mask((2, 1)): -1, encode_mask((1, 1, 1)): 1}
        assert tables[1, 1, 1] == {encode_mask((2, 1)): 2}

    def test_flush_writes_sorted_union(self, tmp_path):
        path = tmp_path / "cache.txt"
        cache = CharCache(path)
        mn_value((3, 3), (3, 3), cache)
        cache.flush()
        first = path.read_text()
        stamp = path.stat().st_mtime_ns
        cache.flush()
        assert path.read_text() == first and path.stat().st_mtime_ns == stamp
        mn_value((2, 2), (2, 2), cache)
        cache.flush()
        lines = path.read_text().splitlines()
        assert set(first.splitlines()) < set(lines)
        assert lines == sorted(set(lines))
        assert [p.name for p in tmp_path.iterdir()] == ["cache.txt"]

    def test_flush_does_not_depend_on_evaluation_order(self, tmp_path):
        pairs = [(lam, mu) for n in range(9) for lam in partitions_of(n) for mu in partitions_of(n)]
        random.Random(7).shuffle(pairs)
        forward, backward = CharCache(tmp_path / "forward.txt"), CharCache(tmp_path / "backward.txt")
        for lam, mu in pairs:
            mn_value(lam, mu, forward)
        for lam, mu in reversed(pairs):
            mn_value(lam, mu, backward)
        forward.flush()
        backward.flush()
        assert len(forward) == len(backward)
        assert (tmp_path / "forward.txt").read_bytes() == (tmp_path / "backward.txt").read_bytes()

    def test_theorem1_benchmark_grid_state_count(self):
        # The memo states of the thm1-cold benchmark workload.
        cache = CharCache()
        for n, d in ((5, 4), (6, 3)):
            assert verify_theorem1(n, d, 6, 4, cache).status == "PASS"
        assert len(cache) == 40058

    def test_flush_after_load_writes_sorted_union(self, tmp_path):
        path = tmp_path / "cache.txt"
        path.write_text("4,4|2,2,2,2=6\n4,4|2,2,2,2=6\ntorn|")
        cache = CharCache(path)
        assert mn_value((4, 4), (2, 2, 2, 2), cache) == 6
        cache.flush()
        assert path.read_text() == "4,4|2,2,2,2=6\n4,4|2,2,2,2=6\ntorn|"
        mn_value((2,), (1, 1), cache)
        mn_value((1, 1), (1, 1), cache)
        cache.flush()
        assert path.read_text() == "1,1|1,1=1\n2|1,1=1\n4,4|2,2,2,2=6\n"

    def test_flush_merges_what_another_writer_saved(self, tmp_path):
        path = tmp_path / "cache.txt"
        mine, theirs = CharCache(path), CharCache(path)
        mn_value((2,), (2,), mine)
        mn_value((1, 1), (2,), theirs)
        theirs.flush()
        mine.flush()
        assert path.read_text() == "1,1|2=-1\n2|2=1\n"
        assert len(mine) == 2

    def test_flush_keeps_another_writers_line_held_here_as_a_state(self, tmp_path):
        path = tmp_path / "cache.txt"
        mine, theirs = CharCache(path), CharCache(path)
        mn_value((3,), (2, 1), mine)
        # Stripping the 2-ribbon leaves 1|1, a recursion state here, not an answer.
        assert mine._values[(1,)] == {encode_mask((1,)): 1}
        assert (1,) not in mine._unsaved
        mn_value((1,), (1,), theirs)
        theirs.flush()
        mine.flush()
        assert path.read_text() == "1|1=1\n3|2,1=1\n"

    def test_flush_keeps_conflicts_fatal(self, tmp_path):
        path = tmp_path / "cache.txt"
        cache = CharCache(path)
        mn_value((2,), (2,), cache)
        path.write_text("2|2=5\n")
        with pytest.raises(CacheFormatError, match="conflicting values 1 and 5.*plethy cache clear"):
            cache.flush()
        assert path.read_text() == "2|2=5\n"
        assert [p.name for p in tmp_path.iterdir()] == ["cache.txt"]

    def test_flush_conflict_names_the_file_line_like_a_load_conflict(self, tmp_path):
        path = tmp_path / "cache.txt"
        cache = CharCache(path)
        mn_value((2,), (2,), cache)
        path.write_text("1,1|2=-1\n2|2=5\n")
        line = rf"^{re.escape(str(path))}:2: conflicting values 1 and 5 for '2\|2=5'; run 'plethy cache clear'"
        with pytest.raises(CacheFormatError, match=line):
            cache.flush()
        path.write_text("2|2=1\n1,1|2=-1\n2|2=5\n")
        with pytest.raises(CacheFormatError, match=line.replace(":2:", ":3:")):
            CharCache(path)

    def test_failed_flush_keeps_the_old_file_and_leaves_no_temporary(self, tmp_path, monkeypatch):
        path = tmp_path / "cache.txt"
        path.write_text("2|2=1\n")
        cache = CharCache(path)
        mn_value((1, 1), (2,), cache)

        def refuse(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError, match="disk full"):
            cache.flush()
        assert path.read_text() == "2|2=1\n"
        assert [p.name for p in tmp_path.iterdir()] == ["cache.txt"]

    @pytest.mark.parametrize(
        "args, error",
        [
            (((1, 2), (3,)), PartitionError),
            (((2, 1), (2, 2)), DegreeMismatchError),
        ],
    )
    def test_mn_value_checks_before_touching_the_cache(self, tmp_path, args, error):
        path = tmp_path / "cache.txt"
        cache = CharCache(path)
        with pytest.raises(error):
            mn_value(*args, cache)
        assert len(cache) == 0
        cache.flush()
        assert not path.exists()
        assert mn_value((3,), (3,), cache) == 1

    def test_concurrent_evaluation_is_consistent(self):
        cache = CharCache()
        pairs = [(lam, mu) for lam in partitions_of(6) for mu in partitions_of(6)]
        expected = {pair: mn_value(*pair) for pair in pairs}
        results = []
        errors = []

        def worker():
            try:
                results.append({pair: mn_value(pair[0], pair[1], cache) for pair in pairs})
            except Exception as exc:
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert all(result == expected for result in results)


def memo_keys(cache):
    """The (shape, class) pairs the cache's memo holds."""
    return {(decode_mask(mask), rho) for rho, table in cache._values.items() for mask in table}


class TestConjugateStore:
    """Each miss stores the conjugate shape's value too, with the class's sign."""

    def test_rows_of_conjugates_in_either_order(self):
        memo = {}
        for n in range(9):
            classes = partitions_of(n)
            for lam in classes:
                shapes = lam, conjugate(lam)
                expected = {shape: {mu: oracles.partition_mn(shape, mu, memo) for mu in classes} for shape in shapes}
                for order in shapes, shapes[::-1]:
                    cache = CharCache()
                    for shape in order:
                        assert mn._row(shape, classes, cache) == expected[shape], (order, shape)

    @pytest.mark.parametrize("n, d", [(3, 3), (4, 2)])
    def test_roots_closed_under_conjugation_keep_the_visited_states(self, n, d):
        # The subdivided shapes of all of partitions_of(n) are closed under
        # conjugation, so storing conjugates adds no state.
        cache, memo = CharCache(), {}
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                pair = boxplus(lam, d), boxplus(mu, d)
                assert mn_value(*pair, cache) == oracles.partition_mn(*pair, memo)
        assert memo_keys(cache) == set(memo)

    def test_other_roots_add_the_conjugates(self):
        cache, memo = CharCache(), {}
        pair = (5, 3, 1), (3, 2, 2, 1, 1)
        assert mn_value(*pair, cache) == oracles.partition_mn(*pair, memo)
        conjugates = {(conjugate(nu), rho) for nu, rho in memo}
        assert not conjugates <= set(memo)
        assert memo_keys(cache) == set(memo) | conjugates

    def test_a_loaded_entry_is_never_replaced(self, tmp_path):
        # 3,1 is the conjugate of 2,1,1; the file's value is wrong.
        path = tmp_path / "cache.txt"
        path.write_text("3,1|2,1,1=5\n")
        cache = CharCache(path)
        value = mn_value((2, 1, 1), (2, 1, 1), cache)
        assert value == oracles.partition_mn((2, 1, 1), (2, 1, 1))
        cache.flush()
        assert path.read_text() == f"2,1,1|2,1,1={value}\n3,1|2,1,1=5\n"


class TestAnswersOnly:
    """The cache file keeps the answers asked for, not the recursion states."""

    def test_one_answer_flushes_one_line(self, tmp_path):
        path = tmp_path / "cache.txt"
        cache = CharCache(path)
        value = mn_value((4, 4, 2, 2), (2,) * 6, cache)
        assert len(cache) > 1
        cache.flush()
        assert path.read_text() == f"4,4,2,2|2,2,2,2,2,2={value}\n"
        assert len(cache) > 1 and len(CharCache(path)) == 1

    def test_rows_and_puts_are_answers(self, tmp_path):
        path = tmp_path / "cache.txt"
        cache = CharCache(path)
        schur_to_power((2, 1), cache)
        mn_value((2, 2), (2, 2), cache)
        cache.flush()
        reloaded = CharCache(path)
        row = {mu: mn_value((2, 1), mu) for mu in partitions_of(3)}
        assert {mu: mn_value((2, 1), mu, reloaded) for mu in row} == row
        assert mn_value((2, 2), (2, 2), reloaded) == 2
        assert len(reloaded) == len(row) + 1

    def test_table_writes_one_line_per_entry(self, tmp_path):
        path = tmp_path / "cache.txt"
        cache = CharCache(path)
        table = character_table(6, cache=cache)
        cache.flush()
        assert len(path.read_text().splitlines()) == sum(map(len, table))

    def test_lines_nobody_asked_for_survive_a_flush(self, tmp_path):
        # A file of an older format holds recursion states too; they stay.
        path = tmp_path / "cache.txt"
        path.write_text("2|1,1=1\n2,1|2,1=-1\n")
        cache = CharCache(path)
        mn_value((3, 1), (2, 2), cache)
        cache.flush()
        assert path.read_text() == "2,1|2,1=-1\n2|1,1=1\n3,1|2,2=-1\n"

    def test_the_empty_shape_is_never_an_answer(self, tmp_path):
        path = tmp_path / "cache.txt"
        cache = CharCache(path)
        assert mn_value((), (), cache) == 1
        assert schur_to_power((), cache).values == {(): 1}
        assert len(cache) == 0
        cache.flush()
        assert not path.exists()
        mn_value((1,), (1,), cache)
        cache.flush()
        stamp = path.stat().st_mtime_ns
        mn_value((), (), cache)
        cache.flush()
        assert path.read_text() == "1|1=1\n" and path.stat().st_mtime_ns == stamp

    def test_cache_without_a_path_records_nothing(self):
        cache = CharCache()
        mn_value((3, 2, 1), (2, 2, 1, 1), cache)
        schur_to_power((2, 2), cache)
        mn_value((2,), (2,), cache)
        assert cache._unsaved is None and cache._on_disk is None
        cache.flush()
        assert len(cache) > 0

    def test_conflict_with_memory_names_the_line(self, tmp_path):
        path = tmp_path / "cache.txt"
        cache = CharCache(path)
        mn_value((2, 1), (3,), cache)
        path.write_text("2,1|3=0\n")
        with pytest.raises(CacheFormatError, match=r"conflicting values -1 and 0 for '2,1\|3=0'"):
            cache.flush()
        assert path.read_text() == "2,1|3=0\n"
