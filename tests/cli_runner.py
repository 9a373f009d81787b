"""Run ``arfsg`` in this process with stdout and stderr captured."""

import argparse
import contextlib
import io
from dataclasses import dataclass

from arfsemigroups.cli import main


@dataclass(frozen=True)
class Result:
    exit_code: int
    stdout: str
    stderr: str

    @property
    def stderr_bytes(self) -> bytes:
        return self.stderr.encode()


def run(*args: str) -> Result:
    """``arfsg args...``; an exception the command does not turn into an exit status propagates."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(args))
        except SystemExit as exc:  # the parser's usage errors and --help
            code = exc.code
    return Result(code, out.getvalue(), err.getvalue())


def leaf_commands(parser, words=()):
    """(words, subparser) for each command of ``parser``, found through its subparsers actions."""
    (group,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    for name, sub in group.choices.items():
        if "fn" in sub._defaults:
            yield words + (name,), sub
        else:
            yield from leaf_commands(sub, words + (name,))
