import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "mfhh"


def test_package_imports_only_the_standard_library():
    # mfhh has no dependency outside the standard library; relative imports
    # stay inside the package
    files = sorted(SRC.glob("*.py"))
    assert files
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] in sys.stdlib_module_names, (path.name, name)


def test_cli_import_leaves_out_json_and_dataclass_records():
    # json loads only where a document is read or written, and invariants, with
    # dataclasses and inspect, at the first access to one of its names; the only
    # dataclasses left are the two verdicts, which callers may digest with
    # dataclasses.asdict; -S keeps site .pth imports out of the count
    code = (
        "import sys\n"
        "import mfhh.cli\n"
        "print([m for m in ('json', 'mfhh.invariants', 'dataclasses', 'inspect') if m in sys.modules])\n"
        "import mfhh\n"
        "from mfhh import class_contributions\n"
        "assert class_contributions is mfhh.engine.class_contributions\n"
        "assert 'scale_compare' not in vars(mfhh)\n"
        "f = mfhh.scale_compare\n"
        "import mfhh.invariants\n"
        "assert vars(mfhh)['scale_compare'] is f is mfhh.invariants.scale_compare\n"
        "assert mfhh.cli.FAMILY_NAMES == mfhh.invariants.FAMILY_NAMES\n"
        "scope = {}\n"
        "exec('from mfhh import *', scope)\n"
        "assert all(scope[name] is getattr(mfhh, name) for name in mfhh.__all__)\n"
        "try:\n"
        "    mfhh.no_such_name\n"
        "    raise SystemExit('mfhh.no_such_name resolved')\n"
        "except AttributeError:\n"
        "    pass\n"
        "import dataclasses, inspect\n"
        "exported = (getattr(mfhh, name) for name in mfhh.__all__)\n"
        "print(sorted(c.__name__ for c in exported if inspect.isclass(c) and dataclasses.is_dataclass(c)))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.splitlines() == ["[]", "['ScaleVerdict', 'SmallResVerdict']"]


def test_readme_python_api_example_gives_its_commented_values():
    # each line of the example with a trailing comment shows the repr of its value
    readme = (SRC.parents[1] / "README.md").read_text()
    code = readme.split("## Python API", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    scope, checked = {}, []
    for line in code.splitlines():
        expr, _, comment = line.partition("#")
        if not comment:
            exec(line, scope)
            continue
        value = eval(expr, scope)
        assert comment.strip().startswith(repr(value)), (line, value)
        checked.append(value)
    assert checked == [11, (6,), {6: 1}, 1]
