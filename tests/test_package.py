import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tablepaths

PUBLIC = [
    "BudgetExceededError", "CheckResult", "DeltaPoly", "DomainError",
    "Family", "GFMatrix", "InternalInconsistencyError",
    "PathTable", "PrimeFactorization", "Recurrence", "RecurrenceReport",
    "RowComboReport", "ScanEntry", "SingerReport", "Verdict", "VerifyReport",
    "base_constant", "build_table", "closed_form", "det_reduced",
    "enumerate_paths", "factor", "is_prime", "minimal_recurrence",
    "multiplier", "order_is_full", "parity_family", "parse_document",
    "recurrence_report", "reduced_matrix", "render_document",
    "row_constant_combinations", "run_suite", "singer_scan", "window_det",
]


def test_all_lists_the_public_names_in_order():
    assert tablepaths.__all__ == PUBLIC


@pytest.mark.parametrize("name", PUBLIC)
def test_public_name_is_its_defining_modules_object(name):
    value = getattr(tablepaths, name)
    home = importlib.import_module(value.__module__)
    assert home.__name__.startswith("tablepaths.")
    assert getattr(home, name) is value


def test_dir_and_star_import_cover_the_public_names():
    assert set(PUBLIC) <= set(dir(tablepaths))
    namespace = {}
    exec("from tablepaths import *", namespace)
    assert namespace.keys() - {"__builtins__"} == set(PUBLIC)
    assert all(namespace[name] is getattr(tablepaths, name) for name in PUBLIC)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="'nope'"):
        tablepaths.nope
    assert not hasattr(tablepaths, "__main__")


def test_bare_import_resolves_submodules_on_first_use():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(Path(__file__).parents[1] / "src"),
                      os.environ.get("PYTHONPATH")])))
    code = ("import sys, tablepaths\n"
            "before = sorted(m for m in sys.modules if m.startswith('tablepaths'))\n"
            "print(*before, tablepaths.pathtable.__name__,\n"
            "      tablepaths.build_table.__module__)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True, env=env)
    assert proc.stdout.split() == ["tablepaths", "tablepaths.errors",
                                   "tablepaths.pathtable",
                                   "tablepaths.pathtable"]


def test_readme_library_block_gives_its_commented_values():
    """Each commented line of README's Library block evaluates to its
    comment: a literal, whose trailing ``...`` marks a prefix, or else the
    value's str."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library\n\n```python\n", 1)[1].split("```", 1)[0]
    namespace, checked = {}, 0
    for line in block.splitlines():
        code, _, comment = map(str.strip, line.partition("#"))
        if not comment:
            exec(code, namespace)
            continue
        got = eval(code, namespace)
        try:
            want = ast.literal_eval(comment)
        except (ValueError, SyntaxError):
            assert str(got) == comment, line
        else:
            if isinstance(want, tuple) and want[-1:] == (...,):
                got, want = got[:len(want) - 1], want[:-1]
            assert got == want, line
        checked += 1
    assert checked == 6
