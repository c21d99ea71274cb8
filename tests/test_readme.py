"""The README's library example runs as written, at a smaller x."""

import math
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    code = blocks[0]
    assert "x = 10**6\n" in code
    exec(compile(code.replace("x = 10**6\n", "x = 10**4\n"), str(README), "exec"), {})
    mean, limit, gap = capsys.readouterr().out.split()
    # omega(N) for N <= 1e4 has mean ln ln x + 0.26 = 2.48 up to O(1/ln x)
    assert 2.0 < float(mean) < 3.0
    # psi(ln 2) for unit weights is prod_p (1 - 1/p^2) = 6/pi^2
    assert abs(complex(limit) - 6.0 / math.pi**2) < 1e-6
    assert float(gap) < 0.1
