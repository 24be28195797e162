"""The README's library example runs and prints what its comments say,
and its prose names only what the package has."""

import ast
import contextlib
import importlib
import io
import pkgutil
import re
from pathlib import Path

import esos

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


def _resolves(module, dotted: str) -> bool:
    obj = module
    for name in dotted.split("."):
        if not hasattr(obj, name):
            return False
        obj = getattr(obj, name)
    return True


def test_readme_names_only_what_exists():
    # every backticked esos.<module>[.<name>] and name(...) in the prose is
    # an attribute of an esos module, so a removed name cannot stay named
    prose = re.sub(r"```.*?```", "", README.read_text(), flags=re.S)
    modules = {
        info.name: importlib.import_module(f"esos.{info.name}")
        for info in pkgutil.iter_modules(esos.__path__)
        if info.name != "__main__"
    }
    named = 0
    for span in re.findall(r"`([^`\n]+)`", prose):
        if qualified := re.fullmatch(r"esos\.(\w+)((?:\.\w+)*)", span):
            module, rest = modules.get(qualified[1]), qualified[2][1:]
            ok = module is not None and (not rest or _resolves(module, rest))
        elif called := re.fullmatch(r"([A-Za-z_][\w.]*)\(.*\)", span):
            ok = any(_resolves(module, called[1]) for module in modules.values())
        else:
            continue
        named += 1
        assert ok, f"README names `{span}`, which no esos module has"
    assert named >= 10  # the module names and the functions the prose cites
