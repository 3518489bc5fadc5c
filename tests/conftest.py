"""Every test starts and ends with empty process memos wherever a memo's
result reads module globals that a test may patch (verify._ordered_tuples
and verify.centralizer_order for _orbits; the partition helpers of
characters for _power_sums and _classes).  So a patched global never meets
a table an earlier test built, and no test leaves a table built under a patch."""

import pytest

from plethy import characters, verify

PROCESS_MEMOS = (verify._orbits, characters._power_sums, characters._classes)


@pytest.fixture(autouse=True)
def clear_process_memos():
    for memo in PROCESS_MEMOS:
        memo.cache_clear()
    yield
    for memo in PROCESS_MEMOS:
        memo.cache_clear()
