"""The README's library example is the documented entry point to the
package's public names; it must run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_example() -> str:
    section = README.read_text(encoding="utf-8").split("## Library example", 1)[1]
    match = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert match is not None, "no python block under '## Library example'"
    return match.group(1)


def test_library_example_runs():
    exec(compile(_library_example(), str(README), "exec"), {"__name__": "readme_example"})
