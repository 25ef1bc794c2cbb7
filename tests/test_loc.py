"""The line counter of scripts/loc.py on a synthetic module."""

from conftest import load_script

loc = load_script("loc")

SOURCE = '''"""Module docstring,
over two lines."""

# a comment line
import os  # a trailing comment


class Box:
    """Class docstring."""

    size = 1

    def area(self):
        """Method docstring,

        with a blank line inside.
        """
        text = """a multi-line string
that is not a docstring"""
        return (self.size
                * 2)


def bare():
    'single-quoted docstring'
    return [
        1,

        2,
    ]
'''


def test_counts_code_lines_only():
    # counted: import, class, size, def area, the two lines of `text`,
    # the two lines of the first return, def bare, and the four lines of
    # the second return (the blank line inside its brackets is not)
    assert loc.count_lines(SOURCE) == 13


def test_main_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text("x = 1\n\n# done\n")
    assert loc.main([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == ["13", "1", "14"]
    assert lines[-1].split()[1] == "total"
