"""Unpack a git revision of this repository, for tools that compare it with the working tree."""
from __future__ import annotations

import os
import subprocess

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def extract(ref: str, directory: str) -> None:
    """Write the committed files of ref (any revision git names) into
    directory with `git archive`; git's error ends the caller if ref is
    unknown."""
    archive = subprocess.run(["git", "-C", ROOT, "archive", ref], check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", directory], input=archive, check=True)
