"""The README's examples run as written."""
import re
import shlex
from pathlib import Path

from elaswave.cli import build_parser

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def test_python_blocks_run():
    blocks = re.findall(r"```python\n(.*?)```", README, re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})


def test_cli_lines_parse():
    blocks = re.findall(r"```sh\n(.*?)```", README, re.S)
    lines = [ln.split("#")[0] for block in blocks for ln in block.splitlines()
             if ln.startswith("elaswave ")]
    assert lines
    parser = build_parser()
    for line in lines:
        parser.parse_args(shlex.split(line)[1:])
