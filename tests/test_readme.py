"""The README's examples run against the code as it is."""

import json
import re
from pathlib import Path

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
