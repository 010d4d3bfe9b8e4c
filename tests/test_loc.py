"""Tests for ``tools/loc.py``, the line counter whose totals the
ROADMAP quotes."""

import importlib.util
from pathlib import Path

LOC_PATH = Path(__file__).resolve().parent.parent / "tools" / "loc.py"


def _load_loc():
    spec = importlib.util.spec_from_file_location("loc", LOC_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


FIXTURE = '''"""A module docstring
over two lines."""

# a comment line


def f(a,
      b):
    """A function docstring."""
    total = (a
             + b)  # a trailing comment
    return total
'''


def test_count_skips_docstrings_comments_and_blank_lines():
    loc = _load_loc()
    # 12 lines; code: the def over two lines, the assignment over two
    # lines and the return.
    assert loc.count(FIXTURE) == (12, 5)


def test_count_keeps_a_string_that_is_not_a_docstring():
    loc = _load_loc()
    source = 'x = 1\n"""not first, so not a docstring"""\n'
    assert loc.count(source) == (2, 2)

