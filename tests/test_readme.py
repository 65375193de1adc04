"""The README's library example runs as written against the public API."""

import math
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_example() -> str:
    section = README.read_text().split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, flags=re.DOTALL)
    assert len(blocks) == 1, "the Library section should hold one python block"
    return blocks[0]


def test_library_example_runs(capsys):
    exec(compile(_library_example(), str(README), "exec"), {})
    printed = [float(v) for v in capsys.readouterr().out.split()]
    assert printed and all(math.isfinite(v) for v in printed)
