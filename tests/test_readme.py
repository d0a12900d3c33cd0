"""The README's documented library example runs as written."""

import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_quick_tour_runs():
    # the first python block under "Library quick tour", run in a fresh scope
    section = README.read_text().split("## Library quick tour", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    scope = {}
    exec(compile(code, "README.md quick tour", "exec"), scope)
    out, queries, report = scope["out"], scope["queries"], scope["report"]
    assert out.shape == (len(queries), 1) and np.isfinite(out).all()
    assert report.achieved_sup_error < 0.2 and len(report.tokens) > 0
