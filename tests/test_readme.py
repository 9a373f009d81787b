"""The ```python examples in README.md, run as doctests, and its ``$ arfsg`` transcripts, run
through the CLI."""

import doctest
import re
import shlex
from pathlib import Path

from cli_runner import run

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_examples_pass():
    text = README.read_text()
    blocks = list(re.finditer(r"^```python\n(.*?)^```$", text, re.M | re.S))
    attempted = []
    for block in blocks:
        lineno = text.count("\n", 0, block.start(1))  # failures report README line numbers
        test = doctest.DocTestParser().get_doctest(block[1], {}, "README.md", str(README), lineno)
        result = doctest.DocTestRunner().run(test)
        assert result.failed == 0, f"{result.failed} README example(s) failed, see stdout"
        attempted.append(result.attempted)
    assert attempted == [13, 4]


def test_readme_cli_transcripts_match_the_cli():
    # a plain ``` block whose first line is `$ arfsg ARGS`: the rest is the command's stdout
    transcripts = re.findall(r"^```\n\$ arfsg (.*?)\n(.*?)^```$", README.read_text(), re.M | re.S)
    for args, shown in transcripts:
        res = run(*shlex.split(args))
        assert (res.exit_code, res.stdout) == (0, shown), args
    assert [args for args, _ in transcripts] == [
        "enumerate 5", "check 5,7,9", "closure 29 --set 6,8", "rank-one 360 --count", "seq refinements 2,2,2,8",
    ]
