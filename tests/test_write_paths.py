"""Every file cld writes goes through ``dataio.atomic_write``.

The one other writer is the log sink, which appends to ``--log``. A source
scan finds each call that can write a file and the function it sits in.
"""

import ast
from pathlib import Path

import cld

SRC = Path(cld.__file__).resolve().parent
ALLOWED = {("dataio.py", "atomic_write"), ("cli.py", "_log_sink")}
WRITER_ATTRS = {"write_text", "write_bytes", "tofile", "savetxt", "savez"}


def _opens_for_writing(call: ast.Call) -> bool:
    """An ``open(path, mode)`` or ``x.open(mode)`` whose mode is not a plain read."""
    func = call.func
    if isinstance(func, ast.Name) and func.id == "open":
        args = call.args[1:]
    elif isinstance(func, ast.Attribute) and func.attr == "open":
        args = call.args
    else:
        return False
    mode = next((k.value for k in call.keywords if k.arg == "mode"), args[0] if args else None)
    if mode is None:
        return False
    # a mode that is not a literal could write
    return not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                and not set(mode.value) & set("wax+"))


def _writes(call: ast.Call) -> bool:
    func = call.func
    if isinstance(func, ast.Attribute):
        if func.attr in WRITER_ATTRS:
            return True
        if (isinstance(func.value, ast.Name) and (func.value.id, func.attr) in
                {("os", "replace"), ("os", "rename"), ("np", "save")}):
            return True
    return _opens_for_writing(call)


def writing_functions(source: str) -> set[str]:
    """Names of the innermost functions that hold a file-writing call."""
    found = set()

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
        if isinstance(node, ast.Call) and _writes(node):
            found.add(scope)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), "<module>")
    return found


def test_scan_finds_writes_and_passes_reads():
    source = """
def reads(p):
    open(p).read(); open(p, "rb"); open(p, mode="r"); p.open()
def writes(p):
    open(p, "w")
def appends(p):
    p.open(mode="a")
def replaces(p, q):
    os.replace(p, q)
def texts(p):
    p.write_text("x")
def chosen(p, mode):
    open(p, mode)
"""
    assert writing_functions(source) == {"writes", "appends", "replaces", "texts", "chosen"}


def test_only_the_atomic_writer_and_the_log_sink_write_files():
    found = {(path.name, name) for path in sorted(SRC.glob("*.py"))
             for name in writing_functions(path.read_text(encoding="utf-8"))}
    assert found == ALLOWED
