"""The package imports only the standard library and itself, and importing
its CLI loads neither dataclasses nor typing nor the inspect, ast and dis
modules that they pull in.
"""

import ast
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "weilq"


def test_every_absolute_import_is_stdlib_or_weilq():
    files = sorted(SRC.glob("*.py"))
    assert files
    outside = []
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [(path.name, name) for name in names
                        if name.split(".")[0] not in {*sys.stdlib_module_names, "weilq"}]
    assert not outside


def test_cli_import_loads_no_introspection_modules():
    # -S skips site, so no .pth file imports typing before weilq does
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import weilq.cli; "
            "print(*sorted({'dataclasses', 'inspect', 'ast', 'dis', 'tokenize', "
            "'typing'} & sys.modules.keys()))")
    out = subprocess.run([sys.executable, "-S", "-c", code, str(SRC.parent)],
                         capture_output=True, text=True, check=True).stdout
    assert out.split() == []
