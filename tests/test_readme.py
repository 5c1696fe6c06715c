"""The README's examples run as shown: the quick-start Python block, and
every `$ hololink ...` line of the CLI transcript with its output and exit
status; every flag the CLI section names exists, and the scene example's
domain is what the writer writes."""

import argparse
import contextlib
import io
import json
from pathlib import Path
import re
import shlex

from hololink import cli, scene_to_dict, scenes

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(
    encoding="utf-8")


def _fenced_blocks(lang):
    return re.findall(rf"^```{lang}\n(.*?)^```", README, re.M | re.S)


def test_readme_quick_start_runs():
    block, = [b for b in _fenced_blocks("python") if "import hololink" in b]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), {})
    # each print's comment starts with the value it prints; "…" elides
    # digits
    shown = [line.split("#", 1)[1].split()[0].rstrip(",")
             for line in block.splitlines() if line.startswith("print(")]
    printed = out.getvalue().splitlines()
    assert len(printed) == len(shown)
    for want, got in zip(shown, printed):
        head, elided, tail = want.partition("…")
        if elided:
            assert got.startswith(head) and got.endswith(tail), (want, got)
        else:
            assert got == want


def _transcript():
    """(command, shown output lines) per `$ ` line of the CLI transcript;
    a trailing `  # ...` on an output line is commentary."""
    block, = [b for b in _fenced_blocks("sh") if "$ hololink" in b]
    steps = []
    for line in block.splitlines():
        if line.startswith("$ "):
            steps.append((line[2:], []))
        else:
            steps[-1][1].append(re.sub(r"\s{2,}#.*$", "", line))
    return steps


def test_readme_cli_transcript_replays(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    steps = _transcript()
    assert any(cmd.startswith("hololink ") for cmd, _ in steps)
    status = None
    for cmd, shown in steps:
        if cmd == "echo $?":
            assert shown == [str(status)]
            continue
        argv = shlex.split(cmd)
        assert argv[0] == "hololink", cmd
        status = cli.main(argv[1:])
        captured = capsys.readouterr()
        lines = (captured.out + captured.err).splitlines()
        for want in shown:
            assert want in lines, (cmd, want)


def test_readme_cli_flags_parse():
    section = README.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", section))
    assert named
    sub, = [a for a in cli.build_parser()._actions
            if isinstance(a, argparse._SubParsersAction)]
    accepted = {flag for parser in sub.choices.values()
                for flag in parser._option_string_actions}
    assert named <= accepted, sorted(named - accepted)


def test_readme_scene_example_domain_is_written():
    block, = _fenced_blocks("jsonc")
    shown = re.findall(r'"domain": (\{[^{}]*\})', block)
    assert shown
    written = scene_to_dict(scenes.l0())["curves"]["c1"]["domain"]
    assert all(json.loads(text) == written for text in shown), shown
