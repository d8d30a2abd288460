"""Documented examples run as written."""

import contextlib
import io
import json
import re
import shlex
from pathlib import Path

import pytest

from fractime.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_sketch():
    section = README.read_text().split("## Library sketch", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace = {}
    with contextlib.redirect_stdout(io.StringIO()):
        exec(code, namespace)
    assert abs(namespace["fit"].q - 1.0) < 0.1
    assert namespace["report"].passed


def _cli_examples():
    section = README.read_text().split("## Command line", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```\n(.*?)```", section, re.S)
    assert len(blocks) == 2
    lines = "".join(blocks).replace("\\\n", " ").splitlines()
    return [shlex.split(line, comments=True)[1:] for line in lines if line.startswith("fractime ")]


@pytest.mark.parametrize("argv", _cli_examples(), ids=" ".join)
def test_cli_example(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0
    if "--json" in argv:
        summary = json.loads(capsys.readouterr().out)
        assert {"command", "manifest", "results"} <= summary.keys()
        assert ("fit" in summary) == ("--fit" in argv)
