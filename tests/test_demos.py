import re
import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("path", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out.strip()


def test_readme_lists_every_demo():
    listed = re.findall(r"python3 demos/(\S+\.py)", (ROOT / "README.md").read_text(encoding="utf-8"))
    assert sorted(listed) == [p.name for p in DEMOS]
