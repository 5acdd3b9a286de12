"""Every ``--flag`` that README.md names is an option of a command of
``convex_order.cli`` or an argument that a script under ``scripts/`` adds,
so a flag that leaves the code cannot stay in the documentation.  The
options are read from the click commands' parameters and the script
arguments from each script's ``add_argument`` calls, by ``ast``: nothing
runs."""

import ast
import re
from pathlib import Path

from convex_order.cli import main

ROOT = Path(__file__).resolve().parents[1]
FLAG = re.compile(r"(?<![\w-])--[a-z][a-z0-9-]*")


def readme_flags(text: str) -> set[str]:
    return set(FLAG.findall(text))


def cli_options() -> set[str]:
    return {opt for command in main.commands.values() for param in command.params
            for opt in param.opts if opt.startswith("--")}


def script_arguments() -> set[str]:
    found = set()
    for path in sorted((ROOT / "scripts").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "add_argument"):
                found |= {arg.value for arg in node.args
                          if isinstance(arg, ast.Constant) and str(arg.value).startswith("--")}
    return found


def test_flags_are_found_in_prose_and_commands():
    text = "run `check p.json --assert-file e.json` (as with --tol 0); not a--b, ---- or --9"
    assert readme_flags(text) == {"--assert-file", "--tol"}


def test_options_and_script_arguments_are_read():
    assert {"--trace", "--coupling-csv", "--assert-file", "--output"} <= cli_options()
    assert {"--dim", "--seed", "--pairs", "--max-atoms"} <= script_arguments()


def test_every_flag_in_the_readme_exists():
    unknown = readme_flags((ROOT / "README.md").read_text()) - cli_options() - script_arguments()
    assert not unknown, f"README.md names flags that no command or script has: {sorted(unknown)}"
