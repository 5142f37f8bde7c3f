"""The README's examples run and print what it shows."""

import re
import shlex
from pathlib import Path

from qschur.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _block(heading: str, lang: str) -> str:
    """The first ```lang block of the README section under ``## heading``."""
    section = README.split(f"\n## {heading}\n", 1)[1]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


def test_the_library_quickstart_runs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    exec(_block("Library quickstart", "python"), {})


def _cli_examples() -> list[tuple[list[str], str, list[str]]]:
    """(argv, trailing comment, the ``#`` lines under it) per command of the CLI block."""
    examples = []
    for line in _block("CLI", "sh").splitlines():
        if line.startswith("qschur "):
            command, _, comment = line.partition("#")
            examples.append((shlex.split(command)[1:], comment, []))
        elif line.startswith("# "):
            examples[-1][2].append(line[2:])
    return examples


def test_the_cli_examples_print_what_the_readme_shows(tmp_path, monkeypatch, capsys):
    # Run inside tmp_path, so that table --out writes nothing into the checkout.
    monkeypatch.chdir(tmp_path)
    seen = []
    for argv, comment, shown in _cli_examples():
        status = re.search(r"exit (\d)", comment)
        want = int(status[1]) if status else 0
        assert main(argv) == want, argv
        out = capsys.readouterr().out
        if shown:
            assert out.splitlines() == shown, argv
        seen.append((argv[0], want, bool(shown)))
    assert seen == [
        ("multiply", 0, True),
        ("reduce", 0, True),
        ("basis", 0, False),
        ("table", 0, False),
        ("verify", 0, False),
        ("verify", 1, False),
        ("multiply", 2, False),
    ]
    assert (tmp_path / "table_d2.jsonl").stat().st_size > 0
