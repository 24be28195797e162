"""The README's library example runs and prints what its comments say."""

import ast
import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def library_example() -> str:
    text = README.read_text()
    block = re.search(r"## Library example\s+```python\n(.*?)```", text, re.S)
    assert block, "README has no Library example block"
    return block.group(1)


def test_readme_library_example_prints_its_comments():
    code = library_example()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    first, second = out.getvalue().splitlines()

    # the bruteforce print's trailing comment opens with its output
    lines = code.splitlines()
    brute = next(l for l in lines if l.startswith("print(embed_bruteforce"))
    assert brute.split("#", 1)[1].split(":")[0].strip() == first == "None"

    # the comment line under the constructive print shows its leading keys
    at = next(i for i, l in enumerate(lines) if l.startswith("print(embed_constructive"))
    claimed = ast.literal_eval(lines[at + 1].lstrip("# ").replace(", ...}", "}"))
    got = ast.literal_eval(second)
    assert claimed == {"outcome": "certified", "kind": "local", "x": [0, 1, 2], "y": [3, 4]}
    assert {key: got[key] for key in claimed} == claimed
