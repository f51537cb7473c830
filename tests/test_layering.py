"""The package imports in one direction: each module imports its layers
at the top, none from inside a function or class body, and the modules'
top-level imports form no cycle.  The command line imports neither
`dataclasses` nor `inspect`."""

import ast
import subprocess
import sys
from pathlib import Path

from conftest import FIXTURES

PACKAGE = FIXTURES.parent


def _imports(path: Path):
    """(top-level package imports as module names, the lines of nested
    imports) of one module."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    top, nested = set(), []
    for stmt in tree.body:
        for node in ast.walk(stmt):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if node is not stmt:
                nested.append(node.lineno)
            elif isinstance(node, ast.Import):
                top.update(a.name.split(".")[1] for a in node.names
                           if a.name.startswith("detl."))
            elif node.level == 1 or (node.module or "").startswith("detl"):
                module = (node.module or "").removeprefix("detl").lstrip(".")
                if module:
                    top.add(module.split(".")[0])
                else:
                    top.update(a.name for a in node.names)
    return top, nested


def _cycle(graph: dict):
    """Some cycle of the graph as a list of nodes, or None."""
    state = {}  # node -> "open" while on the search path, "done" after

    def visit(node, path):
        state[node] = "open"
        for nxt in sorted(graph.get(node, ())):
            if state.get(nxt) == "open":
                return path[path.index(nxt):] + [nxt]
            if nxt not in state:
                found = visit(nxt, path + [nxt])
                if found:
                    return found
        state[node] = "done"
        return None

    for node in sorted(graph):
        if node not in state:
            found = visit(node, [node])
            if found:
                return found
    return None


def test_package_imports_one_way():
    graph, nested = {}, []
    for path in sorted(PACKAGE.glob("*.py")):
        top, lines = _imports(path)
        graph[path.stem] = {m if (PACKAGE / f"{m}.py").exists()
                            else "__init__" for m in top}
        nested.extend(f"{path.name}:{n}" for n in lines)
    assert nested == []
    assert _cycle(graph) is None
    assert not graph["logic"] & {"action", "semantics"}


def test_cli_imports_without_dataclasses():
    # a detl command is mostly start-up, and dataclasses would pull in
    # inspect, ast, dis and tokenize; typing is not needed either, since
    # annotations are strings nothing evaluates.  Checked in a child
    # without site packages, so nothing but the package and the standard
    # library loads
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import detl.cli; "
            "print(*sorted({'dataclasses', 'inspect', 'typing'}"
            " & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-S", "-c", code,
                          str(PACKAGE.parent)], capture_output=True,
                         text=True, check=True).stdout
    assert out.split() == []
