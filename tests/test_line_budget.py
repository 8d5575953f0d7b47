from pathlib import Path

import ssmd

# the package's size at the start of the current round of simplification;
# src/ stays under it (ROADMAP.md, "Line budget")
LINE_BUDGET = 2005


def test_package_stays_under_the_line_budget():
    sources = sorted(Path(ssmd.__file__).parent.glob("*.py"))
    lines = sum(len(path.read_text(encoding="utf-8").splitlines()) for path in sources)
    assert len(sources) > 1 and lines < LINE_BUDGET, (lines, [p.name for p in sources])
