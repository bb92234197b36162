"""Repository hygiene: nothing that .gitignore excludes is tracked, so a
build or test leftover can never be committed as if it were source, and
every CLI example in the README parses, so a stale flag cannot linger there."""

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


def _readme_cli_commands() -> list[list[str]]:
    """Every `finermoe ...` command in the README's CLI section, with
    backslash-continued lines joined, as an argv without the program name."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## CLI\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("\n```", 1)[0]
    commands = []
    for line in block.replace("\\\n", " ").splitlines():
        words = line.split()
        if words and words[0] == "finermoe":
            commands.append(words[1:])
    return commands


def test_readme_cli_examples_parse():
    from finermoe.cli import _build_parser

    commands = _readme_cli_commands()
    assert len(commands) >= 8  # one or more per subcommand
    assert {argv[0] for argv in commands} >= {"preset", "upcycle", "forward", "bench", "check"}
    parser = _build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README example does not parse: finermoe {' '.join(argv)}")
