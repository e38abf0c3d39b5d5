"""The README's examples run as written."""

import json
import math
import re
from pathlib import Path

from rotalign.fields import from_dict

README = Path(__file__).resolve().parents[1] / "README.md"


def code_blocks(language: str) -> list[str]:
    return re.findall(rf"^```{language}\n(.*?)^```", README.read_text(),
                      re.MULTILINE | re.DOTALL)


def test_readme_examples_run(capsys):
    (example,) = code_blocks("python")
    exec(compile(example, str(README), "exec"), {})
    alpha = float(capsys.readouterr().out.split()[0])
    assert math.isclose(alpha, math.pi / 3, abs_tol=1e-5)

    (files,) = code_blocks("json")
    docs = [json.loads(doc) for doc in files.strip().split("\n\n")]
    assert [next(iter(doc)) for doc in docs] == ["linear", "piecewise", "grid"]
    for doc in docs:
        from_dict(doc)
