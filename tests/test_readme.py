"""The README's library example runs as written, at a smaller x and with
the documented signatures of the tail comparisons, its command-line
section names only flags that sd registers, every line of its weight
spec grammar parses, one line per row of the grammar table, and every
`module.name` it cites exists in that module."""

import argparse
import importlib
import math
import re
from pathlib import Path

from selberg_delange.cli import build_parser
from selberg_delange.funcs import _GRAMMAR, parse_multiplicative

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def test_readme_library_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    code = blocks[0]
    assert "x = 10**6\n" in code
    exec(compile(code.replace("x = 10**6\n", "x = 10**4\n"), str(README), "exec"), {})
    mean, limit, gap, x, distance, ratio = capsys.readouterr().out.split()
    # omega(N) for N <= 1e4 has mean ln ln x + 0.26 = 2.48 up to O(1/ln x)
    assert 2.0 < float(mean) < 3.0
    # psi(ln 2) for unit weights is prod_p (1 - 1/p^2) = 6/pi^2
    assert abs(complex(limit) - 6.0 / math.pi**2) < 1e-6
    assert float(gap) < 0.1
    # the tail comparisons label their law with the x of the sums: the
    # Kolmogorov distance of omega(N) at 1e4 is 0.313, and the ldp ratio
    # at s = 2 lies far below 1 (README, criterion 7)
    assert int(x) == 10**4
    assert 0.25 < float(distance) < 0.35
    assert 0.0 < float(ratio) < 0.1


def test_readme_command_line_flags_are_registered():
    text = README.read_text(encoding="utf-8")
    start = text.index("\n## Command line\n")
    section = text[start : text.index("\n## ", start + 1)]
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", section))
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    registered = {opt for parser in sub.choices.values() for a in parser._actions for opt in a.option_strings}
    assert "--x-grid" in named
    assert named <= registered, f"README names flags no command registers: {sorted(named - registered)}"


def test_readme_spec_grammar_lines_parse():
    text = README.read_text(encoding="utf-8")
    start = text.index("\n### Weight spec grammar\n")
    block = re.search(r"```text\n(.*?)```", text[start:], re.S).group(1)
    specs = [line.split()[0] for line in block.splitlines() if line.strip()]
    # one line per row of the grammar table, in its order
    assert [spec.partition(":")[0] for spec in specs] == list(_GRAMMAR)
    for spec in specs:
        # an optional part in [brackets] parses both without and with it
        for form in (re.sub(r"\[.*?\]", "", spec), re.sub(r"\[(.*?)\]", r"\1", spec)):
            parse_multiplicative(form)


def test_readme_cites_only_names_its_modules_define():
    # a helper deleted from a module must not stay in the docs
    text = README.read_text(encoding="utf-8")
    modules = sorted(p.stem for p in (ROOT / "src" / "selberg_delange").glob("*.py") if p.stem != "__init__")
    cited = set(re.findall(rf"(?<![\w.])({'|'.join(modules)})\.([A-Za-z_]\w*)", text)) - {(m, "py") for m in modules}
    assert {("exact", "_DENSE_SPAN"), ("euler", "DEFAULT_FACTOR_TOL")} <= cited
    missing = sorted(f"{m}.{n}" for m, n in cited if not hasattr(importlib.import_module(f"selberg_delange.{m}"), n))
    assert not missing, f"README cites names its modules do not define: {missing}"
