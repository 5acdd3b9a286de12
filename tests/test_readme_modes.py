"""Every mode that a problem file may declare, ``cli.MODES``, is named in
README.md's CLI section, and ``MODES`` is the set that the CLI accepts: a
mode cannot be added or renamed without the documentation changing too."""

import re
from pathlib import Path

import pytest

from convex_order import cli

ROOT = Path(__file__).resolve().parents[1]


def cli_section(text: str) -> str:
    return re.search(r"^## CLI$(.*?)^## ", text, re.MULTILINE | re.DOTALL).group(1)


def test_the_section_is_cut_at_the_next_heading():
    text = "# t\n`gaussian`\n## CLI\nsays `one_d`\n## Next\n`discrete`\n"
    assert cli_section(text) == "\nsays `one_d`\n"


@pytest.mark.parametrize("mode", cli.MODES)
def test_the_cli_accepts_each_mode(mode):
    assert cli._problem_mode({"mode": mode}) == mode


def test_the_readme_names_every_mode():
    section = cli_section((ROOT / "README.md").read_text())
    assert '`"mode"`' in section
    missing = [mode for mode in cli.MODES if f"`{mode}`" not in section]
    assert not missing, f"README.md's CLI section does not name the modes {missing}"
