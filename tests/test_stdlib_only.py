"""The package imports only the standard library and itself, and importing
its CLI loads neither dataclasses nor typing nor the inspect, ast and dis
modules that they pull in, nor builds a shared small-int Fraction, nor fills
any memo; every memo is bounded.  No module of the package, its tests or its
demos imports a name it never uses, and each name in ``weilq.__all__``
resolves once.
"""

import ast
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "weilq"
ROOT = SRC.parent.parent


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


def test_cli_import_builds_no_shared_fractions():
    # the small-int map of fracq is filled on first use, not at import
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import weilq.cli; "
            "from weilq import fracq; print(len(fracq._SHARED))")
    out = subprocess.run([sys.executable, "-S", "-c", code, str(SRC.parent)],
                         capture_output=True, text=True, check=True).stdout
    assert out.split() == ["0"]


def test_cli_import_leaves_every_memo_empty_and_bounded():
    # a memo filled at import would hand the first timed call a warm cache
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import weilq.cli\n"
            "mods = [m for k, m in list(sys.modules.items()) "
            "if k == 'weilq' or k.startswith('weilq.')]\n"
            "memos = {f'{o.__module__}.{o.__qualname__}': o.cache_info() "
            "for m in mods for o in vars(m).values() if hasattr(o, 'cache_info')}\n"
            "for name in sorted(memos):\n"
            "    print(name, memos[name].currsize, memos[name].maxsize)")
    out = subprocess.run([sys.executable, "-S", "-c", code, str(SRC.parent)],
                         capture_output=True, text=True, check=True).stdout
    rows = [line.split() for line in out.splitlines()]
    assert len(rows) == 11
    assert [name for name, currsize, maxsize in rows
            if currsize != "0" or not maxsize.isdigit()] == []


def test_every_public_name_resolves_once():
    import weilq

    assert len(weilq.__all__) == len(set(weilq.__all__))
    assert [name for name in weilq.__all__ if not hasattr(weilq, name)] == []
    assert "is_exact_divisor" not in weilq.__all__


def unused_imports(source: str) -> list:
    """Names a module imports but never reads, in the order imported.

    A name counts as read when it appears as a bare name anywhere in the
    module, or in its ``__all__`` list; ``from __future__`` imports are
    directives, not names.
    """
    tree = ast.parse(source)
    imported, read = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__"
                      for t in node.targets)):
            read.update(ast.literal_eval(node.value))
    return [name for name in imported if name not in read]


def test_unused_import_scan_sees_a_stale_import():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport json as j\n"
              "from .fracq import Record, add_into\n"
              "from .x import exported\n__all__ = ['exported']\n"
              "class A(Record):\n    pass\n")
    assert unused_imports(source) == ["os", "j", "add_into"]


def test_no_module_imports_a_name_it_never_uses():
    files = [*SRC.glob("*.py"), *(ROOT / "tests").glob("*.py"),
             *(ROOT / "demos").glob("*.py")]
    assert len(files) > 20
    unused = [(path.relative_to(ROOT).as_posix(), name) for path in sorted(files)
              for name in unused_imports(path.read_text(encoding="utf-8"))]
    assert not unused
