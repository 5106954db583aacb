"""The README's library example prints what its comments say it prints."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def library_example() -> str:
    """The Python block under the README heading "Library example"."""
    section = README.read_text(encoding="utf-8").split("\n## Library example\n", 1)[1]
    return re.match(r"\s*```python\n(.*?)```", section, re.S).group(1)


def test_library_example_prints_the_values_in_its_comments(capsys):
    code = library_example()
    # each print's comment starts with the value, up to a colon and a space
    stated = [line.split("# ", 1)[1].split(": ", 1)[0]
              for line in code.splitlines() if line.startswith("print(")]
    assert stated == ["VerdictKind.NOT_GATEAUX",
                      "Uncovered(point=2, extension_gap=Fraction(1, 1))", "1"]
    exec(compile(code, "README.md", "exec"), {"__name__": "readme_example"})
    assert capsys.readouterr().out.splitlines() == stated
