"""The README's command-line and library quick tours run as documented."""
import os
import re
import shlex

import pytest

import heisurf.cli as cli

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def _block(heading: str, language: str) -> str:
    """The first ```language block after the README heading."""
    with open(README, encoding="utf-8") as fh:
        section = fh.read().split(heading, 1)[1]
    return re.search(rf"```{language}\n(.*?)```", section, re.DOTALL).group(1)


def _quick_tour() -> list[str]:
    block = _block("## Command-line quick tour", "sh")
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


def test_library_quick_tour_runs():
    exec(compile(_block("## Library quick tour", "python"), README, "exec"), {})


def test_domain_table_names_every_checked_flag():
    # the first column of the table under "Each numeric flag has one domain"
    with open(README, encoding="utf-8") as fh:
        section = fh.read().split("Each numeric flag has one domain", 1)[1]
    rows = re.search(r"^\|.*?(?=^[^|])", section, re.DOTALL | re.MULTILINE)
    listed = {flag for row in rows.group(0).splitlines()[2:]
              for flag in re.findall(r"`(--[a-z0-9-]+)`", row.split("|")[1])}
    checked = {cli._option(key[1] if isinstance(key, tuple) else key)
               for key in cli._DOMAINS}
    assert listed == checked
