"""The ```python examples in README.md, run as doctests."""

import doctest
import re
from pathlib import Path

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
