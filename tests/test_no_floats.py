"""No floats anywhere: every module of circlelab is parsed and searched for a way to make one.

A module fails on a float or complex literal, on the names ``float`` or
``complex``, on an import of ``cmath``, ``statistics`` or ``random``, and
on an import from ``math`` of anything but its integer functions (or of
``math`` whole).  ``Decimal`` is allowed: its uses here are exact.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "circlelab"
MODULES = sorted(PACKAGE.rglob("*.py"))
FLOAT_MODULES = {"cmath", "statistics", "random", "math"}
MATH_INTEGER_FUNCTIONS = {"gcd", "lcm", "isqrt"}


def float_uses(source: str) -> list[str]:
    """Each place in source that could make a float, as ``line N: what``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        line = f"line {getattr(node, 'lineno', '?')}"
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append(f"{line}: literal {node.value!r}")
        elif isinstance(node, ast.Name) and node.id in ("float", "complex"):
            found.append(f"{line}: name {node.id}")
        elif isinstance(node, ast.Import):
            found += [f"{line}: import {a.name}" for a in node.names if a.name.split(".")[0] in FLOAT_MODULES]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module in FLOAT_MODULES:
            allowed = MATH_INTEGER_FUNCTIONS if node.module == "math" else set()
            found += [f"{line}: from {node.module} import {a.name}" for a in node.names if a.name not in allowed]
    return found


def test_every_module_is_searched():
    names = {path.name for path in MODULES}
    assert {"arcs.py", "approx.py", "circle.py", "cli.py", "density.py", "ergodic.py", "experiments.py",
            "numtheory.py"} <= names


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_makes_no_float(path):
    assert float_uses(path.read_text(encoding="utf-8")) == []


def test_the_search_finds_each_way_to_a_float():
    for source in ("x = 0.5", "x = 1e3", "x = 2j", "y = float(3)", "def f(x: complex): pass",
                   "isinstance(x, float)", "import cmath", "import random as r", "import math",
                   "from statistics import mean", "from math import sqrt", "from math import gcd, floor"):
        assert float_uses(source), source
    allowed = "from math import gcd, isqrt, lcm\nfrom decimal import Decimal\nfrom . import random\nx = Decimal(3) / 2"
    assert float_uses(allowed) == []
