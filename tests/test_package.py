import ast
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
