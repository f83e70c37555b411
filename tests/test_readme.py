"""The README's examples run against the code as it is."""

import inspect
import json
import re
import shlex
from pathlib import Path

import pio
from pio.cli import main
from pio.model import model_from_dict, validate_model

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")


def section(title):
    """Text of the ``## title`` section, up to the next level-2 heading."""
    start = README.index(f"\n## {title}\n")
    end = README.find("\n## ", start + 1)
    return README[start : end if end >= 0 else None]


def blocks(text, lang):
    return re.findall(rf"```{lang}\n(.*?)```", text, flags=re.S)


def test_quick_start_runs_from_the_repo_root(monkeypatch, capsys):
    (code,) = blocks(section("Quick start (library)"), "python")
    monkeypatch.chdir(ROOT)
    exec(compile(code, "README quick start", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == str({"intervals": [], "points": [0.0, 2.0, 3.0],
                            "atoms": [[2.0, 1.0], [3.0, 1.0]]})
    assert lines[-1] == "1"


def test_model_file_examples_parse_and_validate():
    docs = blocks(section("Model files"), "json")
    assert len(docs) >= 2
    for doc in docs:
        assert validate_model(model_from_dict(json.loads(doc))).ok


def api_table_entries():
    """The code spans of the first column of the README's API table."""
    rows = [line for line in section("Quick start (library)").splitlines()
            if line.startswith("| `")]
    return [span for row in rows for span in re.findall(r"`([^`]+)`", row.split("|")[1])]


def test_api_table_call_forms_bind_to_the_signatures():
    entries = api_table_entries()
    assert len(entries) >= 16
    for entry in entries:
        name, paren, args = entry.partition("(")
        assert paren, f"{entry!r} gives no call form"
        given = [a.strip() for a in args.rstrip(")").split(",") if a.strip()]
        keywords = dict(a.split("=", 1) for a in given if "=" in a)
        positional = [a for a in given if "=" not in a]
        inspect.signature(getattr(pio, name)).bind(*positional, **keywords)  # TypeError on drift


def test_command_line_examples_exit_0(monkeypatch, capsys):
    (code,) = blocks(section("Command line"), "sh")
    lines = [line for line in code.splitlines() if line.startswith("pio ")]
    assert len(lines) == 7
    monkeypatch.chdir(ROOT)
    for line in lines:
        assert main(shlex.split(line)[1:]) == 0, line
        capsys.readouterr()
