"""Every file the package writes is made by ``ingest.atomic_output``: a guard over its source.

A write made any other way can be left part-written by an interrupted run,
so outside ``atomic_output`` no function of ``src/sproutcast`` may replace,
open for writing, ``write_text``/``write_bytes``, make a directory, or
``np.savetxt`` to anything but an ``atomic_output`` handle.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "sproutcast"
WRITER = "atomic_output"


def _name(func: ast.expr) -> str | None:
    """The ``f`` of a call ``f(...)`` or ``x.f(...)``."""
    return getattr(func, "attr", getattr(func, "id", None))


def _open_mode(call: ast.Call) -> ast.expr | None:
    """The mode of ``open(path, mode)`` or ``path.open(mode)``, or None for the default "r"."""
    at = 1 if isinstance(call.func, ast.Name) else 0
    modes = [k.value for k in call.keywords if k.arg == "mode"] + call.args[at : at + 1]
    return modes[0] if modes else None


class _Writes(ast.NodeVisitor):
    """Each write call of a module, as (function, what), with the handles ``atomic_output`` binds in scope."""

    def __init__(self):
        self.function = "<module>"
        self.handles: list[str] = []
        self.found: list[tuple[str, str]] = []

    def visit_FunctionDef(self, node):
        outer, self.function = self.function, node.name
        self.generic_visit(node)
        self.function = outer

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_With(self, node):
        bound = [
            item.optional_vars.id
            for item in node.items
            if isinstance(item.optional_vars, ast.Name)
            and isinstance(item.context_expr, ast.Call)
            and _name(item.context_expr.func) == WRITER
        ]
        self.handles += bound
        self.generic_visit(node)
        del self.handles[len(self.handles) - len(bound) :]

    def visit_Call(self, node):
        what = self._write(node)
        if what:
            self.found.append((self.function, what))
        self.generic_visit(node)

    def _write(self, call: ast.Call) -> str | None:
        func = call.func
        name = _name(func)
        owner = getattr(getattr(func, "value", None), "id", None)
        if owner == "os" and name in ("replace", "rename", "mkdir", "makedirs"):
            return f"os.{name}"
        if isinstance(func, ast.Attribute) and name in ("mkdir", "write_text", "write_bytes"):
            return name
        if name == "open":
            mode = _open_mode(call)
            if mode is None:
                return None
            if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)) or set(mode.value) & set("wax"):
                return "open"
        if name == "savetxt" and not (call.args and getattr(call.args[0], "id", None) in self.handles):
            return "savetxt to a path"
        return None


def _writes(source: str) -> list[tuple[str, str]]:
    visitor = _Writes()
    visitor.visit(ast.parse(source))
    return visitor.found


def test_every_file_is_written_by_atomic_output():
    writes = {path.name: _writes(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}
    elsewhere = {name: [w for w in found if w[0] != WRITER] for name, found in writes.items()}
    assert {name: found for name, found in elsewhere.items() if found} == {}
    # one replace, one write-mode open and one directory made, all in atomic_output
    assert sorted(what for found in writes.values() for fn, what in found if fn == WRITER) == [
        "mkdir", "open", "os.replace"
    ]


@pytest.mark.parametrize(
    "source, found",
    [
        ("def f(p):\n    p.write_text('x')", [("f", "write_text")]),
        ("def f(p):\n    p.write_bytes(b'x')", [("f", "write_bytes")]),
        ("def f(p):\n    p.parent.mkdir(parents=True)", [("f", "mkdir")]),
        ("def f(p):\n    os.makedirs(p)", [("f", "os.makedirs")]),
        ("def f(a, b):\n    os.replace(a, b)", [("f", "os.replace")]),
        ("def f(p):\n    open(p, 'w')", [("f", "open")]),
        ("def f(p):\n    open(p, mode='ab')", [("f", "open")]),
        ("def f(p, m):\n    p.open(m)", [("f", "open")]),
        ("def f(p):\n    p.open('x')", [("f", "open")]),
        ("def f(p, a):\n    np.savetxt(p, a)", [("f", "savetxt to a path")]),
        ("def f(p, a):\n    with open(p, 'rb') as fh:\n        np.savetxt(fh, a)", [("f", "savetxt to a path")]),
        ("def f(p, a):\n    with atomic_output(p) as fh:\n        np.savetxt(fh, a)", []),
        ("def f(p, a):\n    with ingest.atomic_output(p) as fh:\n        np.savetxt(fh, a)", []),
        ("def f(p):\n    open(p); p.open('rb'); p.open(mode='r', encoding='utf-8'); s.replace('a', 'b')", []),
    ],
)
def test_the_guard_finds_each_kind_of_write(source, found):
    assert _writes(source) == found
