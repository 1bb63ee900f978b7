"""The README's command-line quick tour runs as documented."""
import os
import re
import shlex

import pytest

import heisurf.cli as cli

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def _quick_tour() -> list[str]:
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    section = text.split("## Command-line quick tour", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.DOTALL).group(1)
    return [line for line in block.splitlines() if line.startswith("heisurf ")]


#: The two tour lines whose verdict is false.
FAILING = ("heisurf check-minimal ",
           "heisurf monotonicity --surface broken-plane")


def test_the_quick_tour_is_found():
    assert len(_quick_tour()) >= 11


@pytest.mark.parametrize("line", _quick_tour())
def test_quick_tour_line_runs(tmp_path, capfd, line):
    code = cli.main([*shlex.split(line)[1:], "--output-dir", str(tmp_path)])
    assert code == (1 if line.startswith(FAILING) else 0)
    assert capfd.readouterr().err == ""
    assert os.listdir(str(tmp_path))
