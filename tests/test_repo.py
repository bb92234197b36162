"""Repository hygiene: nothing that .gitignore excludes is tracked, so a
build or test leftover can never be committed as if it were source."""

import shutil
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.skipif(
    shutil.which("git") is None or not (ROOT / ".git").exists(), reason="not a git checkout"
)
def test_no_tracked_file_is_ignored():
    proc = subprocess.run(
        ["git", "ls-files", "-ci", "--exclude-standard"],
        capture_output=True, text=True, cwd=ROOT, check=True,
    )
    assert proc.stdout == ""
