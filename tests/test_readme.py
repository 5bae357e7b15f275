"""The README's library example runs as written."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_library_example_runs(monkeypatch):
    (example,) = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    monkeypatch.chdir(ROOT)    # the example loads docs/sandwich.json
    exec(compile(example, "README.md", "exec"), {})
