"""The package imports in one direction: each module imports its layers
at the top, none from inside a function or class body, and the modules'
top-level imports form no cycle.  The command line imports neither
`dataclasses` nor `inspect`.  The package resolves its public names on
first use, and each entry point loads only the layers it needs."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import detl
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


PUBLIC_NAMES = [
    "ACTION_PROPERTIES", "ActionModel", "And", "Atom", "BOT", "Bisimulation",
    "Bottom", "Box", "DEFAULT_NODE_LIMIT", "EmptyProductError", "FLAT",
    "Formula", "INFINITE", "KRIPKE_PROPERTIES", "KripkeModel", "Not",
    "ParseError", "PointedAction", "PointedModel", "ProbeVerdict",
    "PropertyReport", "RESTRICTED_PROPERTIES", "Signature", "TOP",
    "TableauLimit", "Update", "Verdict", "Workspace", "Yesterday", "action",
    "action_depth", "action_to_document", "actions_in", "agents_in",
    "atoms_in", "bisimilar", "canonical_document", "canonical_dumps",
    "check_action_property", "check_history_preservation",
    "check_past_preservation", "check_property", "check_time_advancing",
    "close_pairs", "conj", "depth", "depth_formula", "dia_update",
    "dia_yesterday", "diamond", "disj", "document_to_object", "eval_rdetl",
    "eval_ydel", "evaluate", "formula", "formula_pool", "generated_submodel",
    "iff", "implies", "is_atemporal", "is_atemporal_action",
    "is_epistemic_past_state", "is_initial", "is_lrdetl_action",
    "is_past_state", "is_restricted", "is_setl", "is_valid", "kripke",
    "language_equivalence_probe", "logic", "model_to_document", "pair_name",
    "parse", "pretty", "product_update", "reduce_formula", "relation_closure",
    "save_action", "save_model", "semantics", "serialize", "sharp_action",
    "sharp_formula", "split_pair", "subformulas", "validity",
    "y_nesting_depth", "ydel_update"]
LAYERS = ("action", "formula", "kripke", "logic", "semantics", "serialize")


def test_public_names_unchanged():
    assert detl.__all__ == PUBLIC_NAMES
    assert set(PUBLIC_NAMES) <= set(dir(detl))


def test_star_import_binds_each_name_from_its_module():
    names = {}
    exec("from detl import *", names)
    del names["__builtins__"]
    assert sorted(names) == PUBLIC_NAMES
    for name, value in names.items():
        module = sys.modules[f"detl.{detl._MODULE_OF[name]}"]
        assert value is (module if name in LAYERS else getattr(module, name))


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="'nope'"):
        getattr(detl, "nope")
    assert not hasattr(detl, "nope")


@pytest.mark.parametrize("code, loaded", [
    ("import detl", []),
    ("import detl; detl.validity", ["formula", "kripke", "logic"]),
    ("import detl; detl.ActionModel",
     ["action", "formula", "kripke", "logic"]),
    ("import detl; detl.evaluate",
     ["action", "formula", "kripke", "logic", "semantics"]),
    ("import detl; detl.Workspace",
     ["action", "formula", "kripke", "logic", "serialize"]),
    ("import detl.cli", ["action", "cli", "formula", "kripke", "logic",
                         "semantics", "serialize"]),
])
def test_entry_point_loads_only_its_layers(code, loaded):
    # pinned as measured: a new top-level import between the layers shows
    # up here.  A child without site packages, as above
    code = (f"import sys; sys.path.insert(0, sys.argv[1]); {code}; "
            "print(*sorted(m for m in sys.modules if m.startswith('detl.')))")
    out = subprocess.run([sys.executable, "-S", "-c", code,
                          str(PACKAGE.parent)], capture_output=True,
                         text=True, check=True).stdout
    assert out.split() == [f"detl.{m}" for m in loaded]
