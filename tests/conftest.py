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
