"""The README's library quick start runs and prints what its comments say."""

import re
from fractions import Fraction
from pathlib import Path

from coalspec import verify_triple

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_start_runs_with_its_commented_values():
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    namespace = {}
    # optimize=0 keeps the block's own assert under python -O
    exec(compile(block, "README.md", "exec", optimize=0), namespace)
    assert verify_triple(namespace["Q"], namespace["triple"]).all_pass
    claims = re.findall(r"^(\S.*?)\s+# (Fraction\(.*\))$", block, re.M)
    assert [expr for expr, _ in claims] == [
        "bs_green(delta, rho)",
        "bs_hitting(delta, rho)",
        "kingman_hitting(delta, rho)",
    ]
    for expr, value in claims:
        assert eval(expr, namespace) == eval(value, {"Fraction": Fraction}), expr
