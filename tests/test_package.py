"""The package as its documentation and its metadata declare it."""

import ast
import re
from pathlib import Path

from defset import brute_weight_distribution

ROOT = Path(__file__).resolve().parents[1]


def test_readme_quick_tour_runs_and_gives_the_values_its_comments_state():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"```python\n(.*?)```", readme, re.S).group(1)
    ns: dict = {}
    values = []
    for stmt in ast.parse(block).body:
        if isinstance(stmt, ast.Expr):
            values.append(eval(compile(ast.Expression(stmt.value), "README.md", "eval"), ns))
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), ns)
    ds, dist = ns["ds"], ns["dist"]
    assert ds.n == 29
    assert dist == brute_weight_distribution(ds)
    enumerator, rows, gauss, lemma8_holds = values
    assert enumerator == "1+44x^18+30x^21+6x^24"
    assert rows == ((18, 44), (21, 30), (24, 6))
    assert gauss == -9 and gauss.to_int() == -9
    assert lemma8_holds is True


def test_sources_parse_at_the_declared_python_floor():
    # guards the grammar only: ast.parse with feature_version rejects syntax newer
    # than the floor, but not a stdlib module or function that the floor lacks
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    floor = tuple(map(int, re.search(r'requires-python = ">=(\d+)\.(\d+)"', pyproject).groups()))
    sources = sorted((ROOT / "src" / "defset").glob("*.py"))
    assert sources
    for path in sources:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=floor)
