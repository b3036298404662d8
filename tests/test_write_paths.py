"""Every file cld writes goes through ``dataio.atomic_write``, and every
file it reads through ``dataio``.

The one other writer, and the one other function that opens a file, is the
log sink, which appends to ``--log``. A source scan finds each call that can
write or read a file and the function it sits in.
"""

import ast
from pathlib import Path

import cld

SRC = Path(cld.__file__).resolve().parent
ALLOWED = {("dataio.py", "atomic_write"), ("cli.py", "_log_sink")}
WRITER_ATTRS = {"write_text", "write_bytes", "tofile", "savetxt", "savez"}
READER_ATTRS = {"read_text", "read_bytes"}
READER_CALLS = {("np", "load"), ("np", "fromfile"), ("np", "loadtxt"), ("np", "genfromtxt"),
                ("json", "load"), ("tomllib", "load")}


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


def _reads(call: ast.Call) -> bool:
    """Any ``open``, or a call that reads a file whole."""
    func = call.func
    if isinstance(func, ast.Name):
        return func.id == "open"
    if not isinstance(func, ast.Attribute):
        return False
    if func.attr == "open" or func.attr in READER_ATTRS:
        return True
    return isinstance(func.value, ast.Name) and (func.value.id, func.attr) in READER_CALLS


def functions_calling(source: str, matches) -> set[str]:
    """Names of the innermost functions that hold a call for which ``matches`` holds."""
    found = set()

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
        if isinstance(node, ast.Call) and matches(node):
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
    assert functions_calling(source, _writes) == {"writes", "appends", "replaces", "texts",
                                                  "chosen"}


def test_only_the_atomic_writer_and_the_log_sink_write_files():
    found = {(path.name, name) for path in sorted(SRC.glob("*.py"))
             for name in functions_calling(path.read_text(encoding="utf-8"), _writes)}
    assert found == ALLOWED


def test_scan_finds_reads_and_passes_parsing():
    source = """
def opens(p):
    open(p, "rb")
def path_opens(p):
    p.open()
def texts(p):
    p.read_text(encoding="utf-8")
def raw(p):
    p.read_bytes()
def arrays(p):
    np.load(p)
def documents(fh):
    json.load(fh)
def parses(text):
    return json.loads(text), tomllib.loads(text), read_document(text, "x", json.loads)
"""
    assert functions_calling(source, _reads) == {"opens", "path_opens", "texts", "raw",
                                                 "arrays", "documents"}


def test_only_dataio_and_the_log_sink_read_files():
    found = {(path.name, name) for path in sorted(SRC.glob("*.py"))
             for name in functions_calling(path.read_text(encoding="utf-8"), _reads)}
    assert {entry for entry in found if entry[0] != "dataio.py"} == {("cli.py", "_log_sink")}
    assert ("dataio.py", "read_text") in found
