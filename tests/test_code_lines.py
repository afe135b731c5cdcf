"""The code-line counter of tools/code_lines.py on a small fixture."""

import pytest
from code_lines import count

_FIXTURE = '''"""A module docstring
over two lines."""

import math  # a trailing comment keeps its line

# a comment line


@staticmethod
def outer(x):
    """Its docstring."""
    def inner(y):
        return y + 1   # nested functions count with their parent
    text = """a string that is
    not a docstring"""
    return inner(x), text


class Shape:
    """A class docstring."""

    def area(self):
        return math.pi
'''


def test_counts_code_lines_without_blanks_comments_or_docstrings():
    # the import, the decorator and def, the nested def and its return, the
    # string's two lines and the return; the class, its def and return
    assert count(_FIXTURE) == 11
    assert count(_FIXTURE, ("outer",)) == 7
    assert count(_FIXTURE, ("Shape",)) == 3
    assert count(_FIXTURE, ("Shape", "area")) == 2
    assert count(_FIXTURE, ("outer", "inner")) == 2
    with pytest.raises(KeyError):
        count(_FIXTURE, ("outer", "missing"))
