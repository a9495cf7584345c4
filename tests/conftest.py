from operator import mul

import pytest

from tablepaths.pathtable import build_table


@pytest.fixture
def first_failure():
    """Runs a table check on the tables m = 1..m_max, each width + 3k
    columns wide (k = ceil(m/2)), and returns the first detail it reports,
    or None."""
    def run(check, m_max, width, *args):
        for m in range(1, m_max + 1):
            detail = check(build_table(m, width + 3 * ((m + 1) // 2)), *args)
            if detail is not None:
                return detail
        return None
    return run


@pytest.fixture
def recurrence_holds():
    """Whether a recurrence holds at index n of a 1-based sequence:
    a(n+k) = alphas[0]*a(n) + ... + alphas[k-1]*a(n+k-1)."""
    def holds(rec, seq, n):
        window = seq[n - 1:n - 1 + rec.k]
        return seq[n - 1 + rec.k] == sum(map(mul, rec.alphas, window))
    return holds
