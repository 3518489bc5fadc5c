import threading

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from plethy import (
    CacheFormatError,
    CharCache,
    DegreeMismatchError,
    character_table,
    conjugate,
    mn_value,
    partitions_of,
)


def same_size_pair(shapes):
    return st.tuples(st.sampled_from(shapes), st.sampled_from(shapes))


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

    def test_dimensions_match_tableau_counts(self):
        for n in range(1, 6):
            for lam in partitions_of(n):
                assert mn_value(lam, (1,) * n) == oracles.syt_count(lam)


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
        for n in range(1, 8):
            for lam in partitions_of(n):
                for mu in partitions_of(n):
                    assert mn_value(conjugate(lam), mu) == (-1) ** (n - len(mu)) * mn_value(lam, mu)

    def test_size_limit(self):
        with pytest.raises(ValueError, match="table too large.*18"):
            character_table(19)
        with pytest.raises(ValueError, match="limit 4"):
            character_table(5, max_n=4)


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
        assert len(reloaded) > 0
        for (lam, mu), value in computed.items():
            assert reloaded.get(lam, mu) == value

    def test_disk_format(self, tmp_path):
        path = tmp_path / "cache.txt"
        cache = CharCache(path)
        cache.put((4, 4), (2, 2, 2, 2), 6)
        cache.flush()
        assert path.read_text() == "4,4|2,2,2,2=6\n"

    def test_duplicate_lines_must_agree(self, tmp_path):
        path = tmp_path / "cache.txt"
        path.write_text("4,4|2,2,2,2=6\n4,4|2,2,2,2=6\n")
        assert CharCache(path).get((4, 4), (2, 2, 2, 2)) == 6
        path.write_text("4,4|2,2,2,2=6\n4,4|2,2,2,2=7\n")
        with pytest.raises(CacheFormatError):
            CharCache(path)

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "cache.txt"
        path.write_text("not a cache line\n")
        with pytest.raises(CacheFormatError):
            CharCache(path)

    def test_flush_appends_only_new_entries(self, tmp_path):
        path = tmp_path / "cache.txt"
        cache = CharCache(path)
        mn_value((2, 2), (2, 2), cache)
        cache.flush()
        first = path.read_text()
        cache.flush()
        assert path.read_text() == first
        mn_value((3, 3), (3, 3), cache)
        cache.flush()
        assert path.read_text().startswith(first)
        assert len(path.read_text()) > len(first)

    def test_flush_after_load_appends_only_new_entries(self, tmp_path):
        path = tmp_path / "cache.txt"
        path.write_text("4,4|2,2,2,2=6\n4,4|2,2,2,2=6\n")
        cache = CharCache(path)
        cache.put((4, 4), (2, 2, 2, 2), 6)
        cache.put((2,), (1, 1), 1)
        cache.put((1, 1), (1, 1), 1)
        cache.flush()
        assert path.read_text() == "4,4|2,2,2,2=6\n4,4|2,2,2,2=6\n2|1,1=1\n1,1|1,1=1\n"

    def test_clear(self, tmp_path):
        path = tmp_path / "cache.txt"
        cache = CharCache(path)
        mn_value((2, 2), (2, 2), cache)
        cache.flush()
        cache.clear()
        assert len(cache) == 0
        assert not path.exists()

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
