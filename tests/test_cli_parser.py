"""The per-command CLI parser reads every command line as the full parser does.

``main`` builds only the subparser of the command that runs; help text,
usage lines and argument errors must not show which parser was built.
"""
from __future__ import annotations

import argparse
import contextlib
import io

import pytest

from subthz_chan import cli

#: every command and subcommand, as its command line starts
COMMAND_LINES = [
    ["ingest"],
    ["fit"],
    ["fit", "pathloss"],
    ["stats"],
    ["stats", "delay"],
    ["stats", "angular"],
    ["pas"],
    ["pas", "dump"],
    ["xpd"],
    ["xpd", "report"],
    ["synth"],
    ["report"],
]

#: what follows the command: help, a bad option, a stray positional, a missing
#: value, a bad choice, a bad number, an abbreviated option, and a full line
#: with one argument too many
TAILS = [
    [],
    ["--help"],
    ["-h"],
    ["--bogus"],
    ["stray"],
    ["--manifest"],
    ["--format", "xml"],
    ["--pol", "HH"],
    ["--seed", "x"],
    ["--threshold-db", "x"],
    ["--man", "m.json"],
    ["--manifest", "m.json", "--out", "o", "--tx-id", "A", "--rx-id", "B", "--side", "AOA", "extra"],
]


def parse(parser, argv: list[str]) -> tuple:
    """(exit code or parsed namespace, stdout, stderr) of parsing ``argv``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = vars(parser.parse_args(argv))
        except SystemExit as exit_:
            result = exit_.code
    return result, out.getvalue(), err.getvalue()


@pytest.fixture(autouse=True)
def columns(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")


@pytest.mark.parametrize("tail", TAILS, ids=" ".join)
@pytest.mark.parametrize("line", COMMAND_LINES, ids=" ".join)
def test_command_parser_reads_like_the_full_parser(line, tail):
    argv = line + tail
    assert parse(cli._build_parser(line[0]), argv) == parse(cli._build_parser(None), argv)


def test_every_command_is_registered_with_its_help():
    out = parse(cli._build_parser(None), ["--help"])[1]
    for name, (help_text, _, _) in cli._COMMANDS.items():
        assert f"    {name}" in out and help_text in out
    for name in cli._COMMANDS:
        # a command's parser names every command, as the full parser's usage does
        assert cli._build_parser(name).format_usage() == cli._build_parser(None).format_usage()


def test_command_parser_leaves_other_commands_empty():
    parser = cli._build_parser("ingest")
    assert parse(parser, ["ingest", "--manifest", "m.json"])[0]["manifest"].name == "m.json"
    # no other command's subparser was built
    (sub,) = [action for action in parser._actions if isinstance(action, argparse._SubParsersAction)]
    assert list(sub.choices) == ["ingest"]


#: a shortest valid line of every command and subcommand
VALID_LINES = [
    ["ingest", "--manifest", "m.json"],
    ["fit", "pathloss", "--manifest", "m.json"],
    ["stats", "delay", "--manifest", "m.json"],
    ["stats", "angular", "--manifest", "m.json"],
    ["pas", "dump", "--manifest", "m.json", "--tx-id", "A", "--rx-id", "B", "--side", "AOA"],
    ["xpd", "report", "--manifest", "m.json"],
    ["synth", "--out", "o"],
    ["report", "--manifest", "m.json", "--out", "o"],
]


@pytest.mark.parametrize("line", VALID_LINES, ids=lambda line: " ".join(line[:2]))
def test_a_stray_argument_reaches_the_top_level_usage(line):
    # the subparser passes ``extra`` up: the top-level parser writes its usage line, the metavar's
    result = parse(cli._build_parser(line[0]), line + ["extra"])
    assert result == parse(cli._build_parser(None), line + ["extra"])
    assert parse(cli._build_parser(line[0]), line)[0]["command"] == line[0]
    usage = cli._build_parser(None).format_usage()
    assert result == (2, "", f"{usage}subthz-chan: error: unrecognized arguments: extra\n")


def test_the_full_parser_names_the_command_argument_command():
    # a metavar would rename it in these errors, which only the full parser writes
    assert parse(cli._build_parser(None), [])[2].endswith("error: the following arguments are required: command\n")
    assert "error: argument command: invalid choice: 'bogus'" in parse(cli._build_parser(None), ["bogus"])[2]


@pytest.mark.parametrize("argv", [[], ["-h"], ["bogus"], ["--", "ingest"]], ids=repr)
def test_main_builds_the_full_parser_without_a_leading_command(argv, monkeypatch):
    built = []
    build = cli._build_parser
    monkeypatch.setattr(cli, "_build_parser", lambda command=None: built.append(command) or build(command))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        with pytest.raises(SystemExit):
            cli.main(argv)
    assert built == [None]


def test_main_builds_only_the_command_that_runs(tmp_path, monkeypatch):
    built = []
    build = cli._build_parser
    monkeypatch.setattr(cli, "_build_parser", lambda command=None: built.append(command) or build(command))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(["ingest", "--manifest", str(tmp_path / "missing.json")]) == cli.EXIT_IO
    assert built == ["ingest"]
