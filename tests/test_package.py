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
    # json loads only where a document is read or written, and the only
    # dataclasses left are the two verdicts, which callers may digest with
    # dataclasses.asdict; -S keeps site .pth imports out of the count
    code = (
        "import sys\n"
        "import mfhh.cli\n"
        "print('json' in sys.modules)\n"
        "import dataclasses, inspect, mfhh\n"
        "exported = (getattr(mfhh, name) for name in mfhh.__all__)\n"
        "print(sorted(c.__name__ for c in exported if inspect.isclass(c) and dataclasses.is_dataclass(c)))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.splitlines() == ["False", "['ScaleVerdict', 'SmallResVerdict']"]
