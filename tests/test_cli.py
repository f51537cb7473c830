import argparse
import contextlib
import io
import json
import re
import shutil

import pytest
from hypothesis import given, settings, strategies as st

from detl import logic
from detl.action import sharp_formula
from detl.cli import build_parser, main
from detl.formula import Atom
from detl.semantics import evaluate
from detl.serialize import Workspace, document_to_object

from conftest import FIXTURES


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_eval_true(capsys):
    code, out = run(capsys, "eval", "M", "w", "~[a]p")
    assert code == 0 and out == "RESULT: true\n"


def test_eval_false(capsys):
    code, out = run(capsys, "eval", "M", "w", "false")
    assert code == 1 and out == "RESULT: false\n"


def test_eval_unknown_world(capsys):
    assert main(["eval", "M", "x", "p"]) == 3


@pytest.mark.parametrize("argv", [("eval", "M", "nosuch", "p"),
                                  ("bisim", "M", "w", "M", "nosuch")])
def test_unknown_world_message_unquoted(capsys, argv):
    # the message of a KeyError, not its repr
    assert main(list(argv)) == 3
    assert capsys.readouterr().err == "ERROR: unknown world 'nosuch'\n"


@pytest.mark.parametrize("argv,message", [
    (("eval", "NOSUCH", "w", "p"), "unknown model 'NOSUCH'"),
    (("check", "NOSUCH"), "unknown model or action 'NOSUCH'"),
], ids=["eval", "check"])
def test_unknown_name_is_a_usage_error(capsys, argv, message):
    assert main(list(argv)) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"ERROR: {message}\n"


def test_eval_parse_error(capsys):
    assert main(["eval", "M", "w", "p &"]) == 3


@pytest.mark.parametrize("mode", ["detl", "ydel"])
def test_eval_deep_negation(capsys, mode):
    # the parser and the evaluators loop over runs of prefix operators,
    # so depth far past the interpreter's recursion limit is fine
    code, out = run(capsys, "--mode", mode, "eval", "M8", "w", "~" * 3000 + "p")
    assert code == 0 and out == "RESULT: true\n"


@pytest.mark.parametrize("mode", ["detl", "ydel", "rdetl"])
@pytest.mark.parametrize("op", ["&", "|"])
def test_eval_flat_connective(capsys, mode, op):
    # a run of & or | is a left spine of conjunctions (seen through ~~ for
    # |), which the evaluator walks in a loop
    code, out = run(capsys, "--mode", mode, "eval", "M8", "w",
                    f" {op} ".join(["p"] * 3000))
    assert code == 0 and out == "RESULT: true\n"


@pytest.mark.parametrize("text", [" & ".join(["[U8@s]p"] * 3000),
                                  " | ".join(["[U8@s]p"] * 3000),
                                  "~" * 3000 + "[U8@s]p"],
                         ids=["and", "or", "not"])
def test_eval_ydel_long_run_over_updates(capsys, text):
    # the ⊕ reading first ♯-translates the formula, which walks such runs
    # in a loop too
    code, out = run(capsys, "--mode", "ydel", "eval", "M8", "w", text)
    assert code == 0 and out == "RESULT: true\n"


@pytest.mark.parametrize("text,code,key", [
    ("~" * 3000 + "(p | ~p)", 0, "VERDICT: VALID"),
    ("~" * 3000 + "[U2@s]q", 1, "COUNTERMODEL: "),
    (" -> ".join(["p"] * 3000), 0, "VERDICT: VALID"),
    ("[Y]" * 3000 + "p", 1, "COUNTERMODEL: "),
    ("[a]" * 3000 + "(p | ~p)", 0, "VERDICT: VALID"),
    ("[a]" * 3000 + "[U2@s]q", 1, "COUNTERMODEL: "),
    ("(" * 3000 + "p | ~p" + ")" * 3000, 0, "VERDICT: VALID"),
    ("[U2@s]" + "[a]" * 3000 + "p", 0, "VERDICT: VALID")],
    ids=["not", "not-update", "implies", "yesterday-boxes", "boxes",
         "boxes-update", "parentheses", "update-boxes"])
def test_validity_deep_input(capsys, text, code, key):
    # the parser, the reduction, the tableau and the countermodel walk
    # loop over such runs
    got, out = run(capsys, "validity", text)
    assert got == code and key in out


def test_deep_parentheses(capsys):
    # the parser keeps open parentheses on its stack, not in recursion
    text = "(" * 3000 + "p" + ")" * 3000
    code, out = run(capsys, "eval", "M", "w", text)
    assert code == 0 and out == "RESULT: true\n"
    code, out = run(capsys, "reduce", text)
    assert code == 0 and out == "REDUCED: p\n"


def test_reduce_deep_boxes_under_an_update(capsys):
    # the update is pushed one step per box, on an explicit stack
    code, out = run(capsys, "reduce", "[U2@s]" + "[a]" * 3000 + "p")
    assert code == 0
    assert out == "REDUCED: " + "p -> [a](" * 3000 + "p -> p" + ")" * 3000 + "\n"


def test_reduce_step_limit(capsys, monkeypatch):
    # [U2@s]^k q takes 53 steps at k = 4 and 161 at k = 5
    monkeypatch.setattr(logic, "_REDUCE_LIMIT", 100)
    assert run(capsys, "reduce", "[U2@s]" * 4 + "q")[0] == 0
    assert run(capsys, "reduce", "[U2@s]" * 5 + "q") == (3, "")


def test_validity_node_limit(capsys):
    code, out = run(capsys, "--max-tableau-nodes", "1", "validity", "[U2@s]q")
    assert code == 3 and out == ""
    assert run(capsys, "--max-tableau-nodes", "4", "validity", "[U2@s]q")[0] == 1
    code, out = run(capsys, "--max-tableau-nodes", "1", "validity", "p")
    assert code == 1 and out.startswith("VERDICT: INVALID\n")


@pytest.mark.parametrize("limit", ["0", "-3", "1.5", "abc"])
@pytest.mark.parametrize("formula", ["true", "false"])
def test_node_limit_must_be_a_positive_integer(capsys, limit, formula):
    assert main(["--max-tableau-nodes", limit, "validity", formula]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == (
        "ERROR: argument --max-tableau-nodes: not an integer of at least 1: "
        f"{limit!r}")


def test_reduce_deep_negation(capsys):
    # the printer folds runs of prefix operators in a loop
    code, out = run(capsys, "reduce", "~" * 3000 + "p")
    assert code == 0 and out == "REDUCED: " + "~" * 3000 + "p\n"
    code, out = run(capsys, "reduce", "<a>[Y]~<Y>[b]" * 600 + "p")
    assert code == 0 and out == "REDUCED: " + "<a>[Y]~<Y>[b]" * 600 + "p\n"


@pytest.mark.parametrize("op", ["&", "|", "->"])
def test_reduce_long_binary_run(capsys, op):
    # the printer walks runs of one binary operator in a loop: & and |
    # nest to the left, -> to the right
    text = f" {op} ".join(["p"] * 3000)
    code, out = run(capsys, "reduce", text)
    assert code == 0 and out == f"REDUCED: {text}\n"


def test_too_deep_is_an_error(capsys):
    # a deep run of boxes still recurses in the evaluator: a data error
    # with exit 3, not a traceback that a caller would read as "false"
    code = main(["eval", "M", "w", "[a]" * 3000 + "p"])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err.startswith("ERROR:") and "Traceback" not in captured.err


def test_eval_rdetl_not_in_scope(tmp_path, capsys):
    (tmp_path / "N.json").write_text(json.dumps({
        "type": "kripke", "agents": ["a"], "atoms": ["p"],
        "worlds": ["u", "v", "w"], "val": {"p": []}, "epistemic": {},
        "yesterday": [["u", "w"], ["v", "w"]]}), encoding="utf-8")
    code, out = run(capsys, "--workspace", str(tmp_path), "--mode", "rdetl",
                    "eval", "N", "w", "p")
    assert code == 2 and out == "RESULT: not-in-scope\n"


def test_update_product(tmp_path, capsys):
    out_file = tmp_path / "P.json"
    code, out = run(capsys, "update", "M", "U2", str(out_file))
    assert code == 0
    assert "WORLDS: 5" in out
    doc = json.loads(out_file.read_text(encoding="utf-8"))
    assert len(doc["worlds"]) == 5 and doc["point"] == "w|s"


def test_update_ydel(tmp_path, capsys):
    out_file = tmp_path / "Y.json"
    code, out = run(capsys, "--mode", "ydel", "update", "M8", "U8",
                    str(out_file))
    assert code == 0 and "WORLDS: 5" in out
    doc = json.loads(out_file.read_text(encoding="utf-8"))
    assert "w|♭" in doc["worlds"] and "v|♭" in doc["worlds"]


def _two_pasts(tmp_path):
    """A workspace with N, p everywhere and w one tick after both u and v
    (so N fails only uniqueness of past), and A, one event firing always."""
    (tmp_path / "N.json").write_text(json.dumps({
        "type": "kripke", "agents": ["a"], "atoms": ["p"],
        "worlds": ["u", "v", "w"], "val": {"p": ["u", "v", "w"]},
        "epistemic": {}, "yesterday": [["u", "w"], ["v", "w"]],
        "closure": "s5"}), encoding="utf-8")
    (tmp_path / "A.json").write_text(json.dumps({
        "type": "action", "agents": ["a"], "atoms": ["p"], "events": ["e"],
        "pre": {"e": "true"}, "epistemic": {}, "yesterday": [],
        "closure": "s5"}), encoding="utf-8")
    return Workspace.load_dir(tmp_path)


def test_permissive_ydel_eval(tmp_path, capsys):
    ws = _two_pasts(tmp_path)
    argv = ("--workspace", str(tmp_path), "--mode", "ydel")
    assert main([*argv, "eval", "N", "w", "[A@e]p"]) == 3
    assert capsys.readouterr() == ("", "ERROR: ydel evaluation requires a "
                                   "restricted model (fails uniqueness_of_past)\n")
    code, out = run(capsys, *argv, "--permissive-ydel", "eval", "N", "w",
                    "[A@e]p")
    assert code == 0 and out == "RESULT: true\n"
    N = ws.models["N"][0]
    assert evaluate(N, "w", sharp_formula(ws.parse("[A@e]p")))


def test_permissive_ydel_update(tmp_path, capsys):
    _two_pasts(tmp_path)
    argv = ("--workspace", str(tmp_path), "--mode", "ydel")
    out_file = tmp_path / "P.json"  # written after the workspace is read
    assert main([*argv, "update", "N", "A", str(out_file)]) == 3
    assert capsys.readouterr() == ("", "ERROR: ydel update requires a "
                                   "restricted model (fails uniqueness_of_past)\n")
    assert not out_file.exists()
    code, out = run(capsys, *argv, "--permissive-ydel", "update", "N", "A",
                    str(out_file))
    assert code == 0 and "WORLDS: 6\n" in out


def test_check_model(capsys):
    code, out = run(capsys, "check", "M", "restricted")
    assert code == 0 and out == "restricted: PASS\n"


# a cyclic model that fails five properties, and a two-world one whose
# only failure is perfect recall
CHECKED = {
    "N": {"type": "kripke", "agents": ["a", "b"], "atoms": ["p", "q"],
          "worlds": ["w0", "w1", "w2", "w3"],
          "val": {"p": ["w2", "w3"], "q": ["w0", "w3"]},
          "epistemic": {
              "a": [["w0", "w3"], ["w1", "w3"], ["w2", "w0"], ["w2", "w1"],
                    ["w3", "w1"], ["w3", "w3"]],
              "b": [["w0", "w2"], ["w1", "w0"], ["w1", "w3"], ["w2", "w0"],
                    ["w2", "w2"], ["w2", "w3"], ["w3", "w1"], ["w3", "w3"]]},
          "yesterday": [["w0", "w1"], ["w0", "w2"], ["w1", "w0"],
                        ["w1", "w2"], ["w1", "w3"], ["w2", "w3"],
                        ["w3", "w2"]]},
    "R": {"type": "kripke", "agents": ["a", "b"], "atoms": ["p", "q"],
          "worlds": ["w0", "w1"], "val": {"p": [], "q": ["w0", "w1"]},
          "epistemic": {"a": [["w0", "w0"], ["w1", "w1"]],
                        "b": [["w1", "w1"]]},
          "yesterday": [["w0", "w1"]]},
}


@pytest.mark.parametrize("argv,want", [
    (["N"], """\
persistence_of_facts: FAIL ('w0', 'w1', 'q')
depth_definedness: FAIL ('w0',)
knowledge_of_past: PASS
knowledge_of_initial_time: PASS
uniqueness_of_past: FAIL ('w2', 'w0', 'w1')
perfect_recall: FAIL ('w0', 'w1', 'a', 'w3')
synchronicity: FAIL ('w0',)
"""),
    (["N", "perfect-recall", "restricted"], """\
perfect_recall: FAIL ('w0', 'w1', 'a', 'w3')
restricted: FAIL ('persistence_of_facts', 'w0', 'w1', 'q')
"""),
    (["R"], """\
persistence_of_facts: PASS
depth_definedness: PASS
knowledge_of_past: PASS
knowledge_of_initial_time: PASS
uniqueness_of_past: PASS
perfect_recall: FAIL ('w0', 'w1', 'b', 'w1')
synchronicity: PASS
"""),
    (["R", "restricted", "perfect-recall", "restricted"], """\
restricted: FAIL ('perfect_recall', 'w0', 'w1', 'b', 'w1')
perfect_recall: FAIL ('w0', 'w1', 'b', 'w1')
restricted: FAIL ('perfect_recall', 'w0', 'w1', 'b', 'w1')
""")], ids=["N", "N-restricted", "R", "R-restricted"])
def test_check_model_failures(tmp_path, capsys, argv, want):
    # reports and witnesses as the property checks first printed them
    for name, doc in CHECKED.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(doc),
                                               encoding="utf-8")
    code, out = run(capsys, "--workspace", str(tmp_path), "check", *argv)
    assert code == 1 and out == want


# stdout and exit code of `detl check` on the bundled fixtures, byte for
# byte: a model, an action and a pointed action each with its defaults,
# and the names only one kind of target accepts
PINNED_CHECKS = {
    "M": (0, """\
persistence_of_facts: PASS
depth_definedness: PASS
knowledge_of_past: PASS
knowledge_of_initial_time: PASS
uniqueness_of_past: PASS
perfect_recall: PASS
synchronicity: PASS
"""),
    "M restricted": (0, "restricted: PASS\n"),
    "M8 restricted": (0, "restricted: PASS\n"),
    "U2": (0, """\
depth_definedness: PASS
knowledge_of_past: PASS
knowledge_of_initial_time: PASS
uniqueness_of_past: PASS
perfect_recall: PASS
synchronicity: PASS
history_preservation: PASS
"""),
    "U5": (1, """\
depth_definedness: PASS
knowledge_of_past: PASS
knowledge_of_initial_time: PASS
uniqueness_of_past: PASS
perfect_recall: FAIL ('s', 'r', 'a', 's')
synchronicity: FAIL ('r', 'a', 's', 2, 1)
history_preservation: FAIL ('s', 'r', 'precondition')
"""),
    "U5 lrdetl": (1, "lrdetl_action: FAIL ('U5', 'perfect_recall', 's', 'r', "
                     "'a', 's')\n"),
    "U5 history-preservation": (
        1, "history_preservation: FAIL ('s', 'r', 'precondition')\n"),
    "U8": (1, """\
depth_definedness: PASS
knowledge_of_past: PASS
knowledge_of_initial_time: PASS
uniqueness_of_past: PASS
perfect_recall: PASS
synchronicity: PASS
history_preservation: FAIL ('s', 'past_state_not_epistemic')
"""),
    "U8 lrdetl": (1, "lrdetl_action: FAIL ('U8', 'history_preservation', "
                     "'s', 'past_state_not_epistemic')\n"),
    "U8 history-preservation": (
        1, "history_preservation: FAIL ('s', 'past_state_not_epistemic')\n"),
    "U2@s": (0, "past_preservation: PASS\ntime_advancing: PASS\n"),
    "U3@t": (1, "past_preservation: PASS\n"
                "time_advancing: FAIL ('t', 'point_is_past_state')\n"),
    "U4@r": (0, "past_preservation: PASS\ntime_advancing: PASS\n"),
}
PINNED_CHECKS["M8"] = PINNED_CHECKS["M"]
for name in ("U3", "U4", "U6"):
    PINNED_CHECKS[name] = PINNED_CHECKS["U2"]
for name in ("U2", "U3", "U4", "U6"):
    PINNED_CHECKS[f"{name} lrdetl"] = (0, "lrdetl_action: PASS\n")
    PINNED_CHECKS[f"{name} history-preservation"] = (
        0, "history_preservation: PASS\n")


@pytest.mark.parametrize("argv", sorted(PINNED_CHECKS))
def test_check_pinned_output(capsys, argv):
    assert run(capsys, "check", *argv.split()) == PINNED_CHECKS[argv]


@pytest.mark.parametrize("target,prop", [
    ("M", "lrdetl"), ("M", "bogus"), ("U2", "persistence-of-facts"),
    ("U2", "restricted"), ("U2@s", "restricted"), ("U2@s", "lrdetl")])
def test_check_unknown_property(capsys, target, prop):
    # a name the target's kind has no check for is a usage error, found
    # before any report is printed
    code, out = run(capsys, "check", target, "depth-definedness"
                    if "@" not in target else "past-preservation", prop)
    assert code == 3 and out == ""


def test_check_pointed_action(capsys):
    code, out = run(capsys, "check", "U2@s", "time-advancing")
    assert code == 0 and "time_advancing: PASS" in out
    code, out = run(capsys, "check", "U3@t", "time-advancing")
    assert code == 1 and "time_advancing: FAIL" in out


def test_check_action_fail_reports_witness(capsys):
    code, out = run(capsys, "check", "U5", "synchronicity")
    assert code == 1 and "synchronicity: FAIL" in out


def test_reduce(capsys):
    code, out = run(capsys, "reduce", "[U2@s]q")
    assert code == 0 and out == "REDUCED: p -> q\n"


def test_reduce_folds_true_preconditions(capsys):
    # t, U2's "nothing happens" event, has precondition true: no guard
    code, out = run(capsys, "reduce", "[U2@t][U2@t]q")
    assert code == 0 and out == "REDUCED: q\n"


@pytest.mark.parametrize("argv", [
    (),
    ("nosuch",),
    ("eval", "M", "w"),
    ("--max-tableau-nodes", "abc", "validity", "p"),
    ("--mode", "bogus", "eval", "M", "w", "p"),
    ("demo", "nosuch"),
], ids=["no-command", "unknown-command", "missing-positional", "bad-int",
        "bad-mode", "unknown-figure"])
def test_usage_error_is_exit_3(capsys, argv):
    # argparse would exit 2, which means not-in-scope
    assert main(list(argv)) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: detl")
    assert captured.err.splitlines()[-1].startswith("ERROR: ")


@pytest.mark.parametrize("argv", [("--help",), ("eval", "--help")])
def test_help_is_exit_0(capsys, argv):
    with pytest.raises(SystemExit) as stop:
        main(list(argv))
    assert stop.value.code == 0
    assert capsys.readouterr().out.startswith("usage: detl")


def _arguments(parser):
    """(option strings, dest, nargs, choices, action class, default, help,
    type) of each argument of parser but argparse's own -h and the
    subcommand slot."""
    return [(tuple(a.option_strings), a.dest, a.nargs,
             None if a.choices is None else list(a.choices),
             type(a).__name__, a.default, a.help,
             getattr(a.type, "__name__", a.type))
            for a in parser._actions
            if not isinstance(a, (argparse._HelpAction,
                                  argparse._SubParsersAction))]


_STORE = "_StoreAction"
_PARSER = {
    "arguments": [
        (("--workspace",), "workspace", None, None, _STORE, None,
         "directory of *.json model/action files (default: bundled figure "
         "fixtures)", None),
        (("--mode",), "mode", None, ["detl", "ydel", "rdetl"], _STORE,
         "detl", "semantics used by eval/update", None),
        (("--max-tableau-nodes",), "max_tableau_nodes", None, None, _STORE,
         1000000, "tableau nodes validity may expand, at least 1",
         "_positive_int"),
        (("--permissive-ydel",), "permissive_ydel", 0, None,
         "_StoreTrueAction", False,
         "allow ydel operations on non-restricted models", None)],
    "commands": [
        ("eval", "evaluate a formula at a world", "cmd_eval", [
            ((), "model", None, None, _STORE, None, None, None),
            ((), "world", None, None, _STORE, None, None, None),
            ((), "formula", None, None, _STORE, None, None, None)]),
        ("update", "write the updated model", "cmd_update", [
            ((), "model", None, None, _STORE, None, None, None),
            ((), "action", None, None, _STORE, None, None, None),
            ((), "out", None, None, _STORE, None, None, None)]),
        ("check", "property reports for a model, an action, or a pointed "
         "action Name@event", "cmd_check", [
             ((), "target", None, None, _STORE, None, None, None),
             ((), "properties", "*", None, _STORE, None, None, None)]),
        ("reduce", "update-free equivalent of a formula", "cmd_reduce", [
            ((), "formula", None, None, _STORE, None, None, None)]),
        ("validity", "decide validity over all models", "cmd_validity", [
            ((), "formula", None, None, _STORE, None, None, None),
            (("--countermodel",), "countermodel", None, None, _STORE, None,
             "write the countermodel here", None)]),
        ("bisim", "bisimulation between two pointed models", "cmd_bisim", [
            ((), "model_a", None, None, _STORE, None, None, None),
            ((), "world_a", None, None, _STORE, None, None, None),
            ((), "model_b", None, None, _STORE, None, None, None),
            ((), "world_b", None, None, _STORE, None, None, None)]),
        ("sharp", "translate an atemporal action", "cmd_sharp", [
            ((), "action", None, None, _STORE, None, None, None),
            ((), "out", None, None, _STORE, None, None, None)]),
        ("demo", "replay the bundled figure claims", "cmd_demo", [
            ((), "figure", None, ["fig1", "fig2", "fig3", "fig4", "fig5",
                                  "fig8", "fig9", "fig10"],
             _STORE, None, None, None)]),
        ("fmt", "canonical reprint of a model file", "cmd_fmt", [
            ((), "file", None, None, _STORE, None, None, None),
            (("--dot",), "dot", 0, None, "_StoreTrueAction", False,
             "DOT export instead", None)]),
    ],
}


def test_parser_structure_pinned():
    # the subcommands, their order, arguments, help and handlers as
    # build_parser gave them when it spelled out each subparser; the
    # structure, since --help text differs between Python versions
    ap = build_parser()
    sub, = [a for a in ap._actions
            if isinstance(a, argparse._SubParsersAction)]
    assert (ap.prog, ap.description) == (
        "detl", "Dynamic epistemic temporal logic toolbox")
    assert (sub.dest, sub.required) == ("command", True)
    assert all(isinstance(a, argparse._HelpAction) for a in (
        ap._actions[0], *(p._actions[0] for p in sub.choices.values())))
    got = {"arguments": _arguments(ap),
           "commands": [(c.dest, c.help,
                         sub.choices[c.dest].get_default("func").__name__,
                         _arguments(sub.choices[c.dest]))
                        for c in sub._choices_actions]}
    assert got == _PARSER
    assert list(sub.choices) == [c for c, *_ in _PARSER["commands"]]


def test_validity(tmp_path, capsys):
    code, out = run(capsys, "validity", "[a](p -> p)")
    assert code == 0 and out == "VERDICT: VALID\n"
    counter = tmp_path / "cm.json"
    code, out = run(capsys, "validity", "p", "--countermodel", str(counter))
    assert code == 1 and "VERDICT: INVALID" in out
    assert counter.exists()
    # no agent in the formula, and an atom named a: the countermodel's
    # agent must be another name
    work = tmp_path / "ws"
    work.mkdir()
    (work / "N.json").write_text(json.dumps({
        "type": "kripke", "agents": ["b"], "atoms": ["a"], "worlds": ["w"],
        "val": {"a": []}, "epistemic": {}, "yesterday": []}), encoding="utf-8")
    code, out = run(capsys, "--workspace", str(work), "validity", "a -> a")
    assert code == 0 and out == "VERDICT: VALID\n"
    code, out = run(capsys, "--workspace", str(work), "validity", "a")
    assert code == 1 and out.startswith("VERDICT: INVALID\nCOUNTERMODEL: ")
    _, C, point = document_to_object(json.loads(out.split(": ", 2)[2]))
    assert not evaluate(C, point, Atom("a"))


def test_validity_countermodel_names_pinned(capsys):
    # worlds are named in depth-first preorder of the tableau's tree, and
    # w3 is one world: the witness of w2's <a>p and of w4's <b>p
    code, out = run(capsys, "validity", "~(<a><b>p & <b><a>p & <a>q)")
    assert code == 1 and out == (
        'VERDICT: INVALID\nCOUNTERMODEL: {"type": "kripke", "agents": '
        '["a", "b"], "atoms": ["p", "q"], "worlds": ["w0", "w1", "w2", '
        '"w3", "w4"], "val": {"p": ["w3"], "q": ["w1"]}, "epistemic": '
        '{"a": [["w0", "w1"], ["w0", "w4"], ["w2", "w3"]], "b": [["w0", '
        '"w2"], ["w4", "w3"]]}, "yesterday": [], "point": "w0"}\n')


def test_bisim(capsys):
    code, out = run(capsys, "bisim", "M", "w", "M8", "w")
    assert code == 1 and "NOT-BISIMILAR" in out
    code, out = run(capsys, "bisim", "M", "w", "M", "w")
    assert code == 0 and out.startswith("VERDICT: BISIMILAR\nRELATION: ")
    assert ["w", "w"] in json.loads(out.split("RELATION: ", 1)[1])


def test_sharp(tmp_path, capsys):
    out_file = tmp_path / "S.json"
    code, out = run(capsys, "sharp", "U8", str(out_file))
    assert code == 0 and "EVENTS: 3" in out
    doc = json.loads(out_file.read_text(encoding="utf-8"))
    assert "♭" in doc["events"]
    assert sorted(map(tuple, doc["yesterday"])) == [("♭", "s"), ("♭", "t")]


def test_sharp_of_an_action_with_a_flat_event(tmp_path, capsys):
    # ♯ adds one fresh event ♭, so an action that already has one is
    # rejected by `sharp` and by the ⊕ update and evaluation
    shutil.copy(FIXTURES / "M8.json", tmp_path)
    (tmp_path / "V.json").write_text(json.dumps({
        "type": "action", "agents": ["a", "b"], "atoms": ["p", "q"],
        "events": ["♭", "e"], "pre": {"♭": "p", "e": "true"},
        "epistemic": {}, "yesterday": [], "closure": "s5"}), encoding="utf-8")
    out_file = tmp_path / "S.json"
    for argv in (("sharp", "V", str(out_file)),
                 ("--mode", "ydel", "update", "M8", "V", str(out_file)),
                 ("--mode", "ydel", "eval", "M8", "w", "[V@e]p")):
        assert main(["--workspace", str(tmp_path), *argv]) == 3
        assert capsys.readouterr() == (
            "", "ERROR: ♯ adds a fresh event ♭, and V has one\n")
    assert not out_file.exists()


# each figure's claims, in the order `demo` prints them
_DEMO_KEYS = {
    "fig1": ["neither-knows-p", "restricted"],
    "fig2": ["know-but-yesterday-did-not", "five-worlds", "depth-one",
             "time-advancing"],
    "fig3": ["bisimilar", "probe-depth-3", "not-time-advancing"],
    "fig4": ["seven-worlds", "depth-two"],
    "fig5": ["two-step-maybe-learned-before", "one-step-not", "asynchronous",
             "witness-arrow"],
    "fig8": ["atemporal", "restricted"],
    "fig9": ["five-worlds", "oplus-equals-sharp-product", "restricted",
             "flat-layer-bisimilar"],
    "fig10": ["three-events", "flat-epistemic-past-state", "forest-action",
              "histories-length-one"],
}


@pytest.mark.parametrize("figure", list(_DEMO_KEYS))
def test_demo(capsys, figure):
    code, out = run(capsys, "demo", figure)
    assert code == 0
    assert out == "".join(f"{key}: PASS\n" for key in _DEMO_KEYS[figure])


_M_DOC = json.loads((FIXTURES / "M.json").read_text(encoding="utf-8"))
_U2_DOC = json.loads((FIXTURES / "U2.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("command,doc", [
    ("load", dict(_M_DOC, agents=5)),
    ("load", dict(_M_DOC, epistemic=[1])),
    ("load", dict(_M_DOC, val={"p": 5})),
    ("load", dict(_U2_DOC, pre={"e": 5})),
    ("load", dict(_M_DOC, worlds=[["w"]])),
    ("load", [1, 2]),
    ("fmt", {"agents": 5}),
    ("fmt", 5),
    ("load", dict(_M_DOC, worlds="wv")),
    ("load", dict(_M_DOC, agents="ab")),
    ("fmt", dict(_M_DOC, worlds=[1, 2])),
], ids=["int-agents", "list-epistemic", "int-val", "int-pre", "list-world",
        "top-level-list", "fmt-int-agents", "fmt-int", "string-worlds",
        "string-agents", "fmt-int-worlds"])
def test_malformed_document_is_a_data_error(tmp_path, capsys, command, doc):
    # a value of the wrong JSON type is exit 3 naming the file, not a
    # traceback with exit 1, which reads as "false"
    path = tmp_path / "X.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    argv = (["fmt", str(path)] if command == "fmt"
            else ["--workspace", str(tmp_path), "check", "X"])
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err.startswith(f"ERROR: {path}: ")


_STRAY_KEYS = [
    # a misspelt key is not read as a missing one: M with "epistemc" would
    # have no arrows, and [a]p would hold at w
    ("M", {k.replace("epistemic", "epistemc"): v for k, v in _M_DOC.items()},
     ["epistemc"]),
    # the keys of the other kind are not read either: M with an event and
    # its precondition would still answer, and `fmt --dot` would label w q
    ("M", dict(_M_DOC, events=["zz"], pre={"w": "q"}), ["events", "pre"]),
    ("U2", dict(_U2_DOC, worlds=["s"], val={"p": ["s"]}), ["val", "worlds"]),
]


def test_unknown_key_is_a_data_error(tmp_path, capsys):
    # every reader rejects a document with a key outside its kind's keys,
    # with one message
    for i, (name, doc, unknown) in enumerate(_STRAY_KEYS):
        work = tmp_path / f"ws{i}"
        shutil.copytree(FIXTURES, work)
        path = work / f"{name}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        for argv in (["--workspace", str(work), "eval", "M", "w", "[a]p"],
                     ["--workspace", str(work), "check", "M"],
                     ["fmt", str(path)], ["fmt", str(path), "--dot"]):
            assert main(argv) == 3, argv
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err == (
                f"ERROR: {path}: unknown keys in document: {unknown}\n"), argv


@pytest.mark.parametrize("doc,key", [({"type": "kripke"}, "agents"),
                                     ({"agents": ["a"], "worlds": ["w"]},
                                      "type"),
                                     ({k: v for k, v in _U2_DOC.items()
                                       if k != "pre"}, "pre")])
@pytest.mark.parametrize("command", ["load", "fmt"])
def test_missing_key_is_named(tmp_path, capsys, command, doc, key):
    # a document without a key the reader needs is exit 3 on loading and
    # on reprinting, with a message that names the key
    path = tmp_path / "X.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    argv = (["fmt", str(path)] if command == "fmt"
            else ["--workspace", str(tmp_path), "check", "X"])
    assert main(argv) == 3
    assert capsys.readouterr().err == (
        f"ERROR: {path}: a document needs the key {key!r}\n")


@pytest.mark.parametrize("doc,message", [
    ({"type": "action", "agents": ["a"], "events": ["e"], "pre": {}},
     "exactly one precondition per event required"),
    ({"type": "kripke", "agents": ["a"], "worlds": []},
     "a model needs at least one world"),
    (dict(_M_DOC, point="x"), "unknown world 'x'"),
    (dict(_U2_DOC, pre={"s": "p &", "t": "true"}),
     "unexpected 'end of input' (at position 3)"),
    (dict(_U2_DOC, pre={"s": "r", "t": "true"}),
     "unknown atom 'r' (at position 0)"),
], ids=["pre-not-per-event", "no-worlds", "point-off-the-worlds",
        "pre-cut-short", "pre-unknown-atom"])
@pytest.mark.parametrize("command", ["load", "fmt"])
def test_content_loading_rejects_is_not_reprinted(tmp_path, capsys, command,
                                                  doc, message):
    # fmt reprints no document a workspace cannot load, and says why in
    # the loader's words
    path = tmp_path / "X.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    argv = (["fmt", str(path)] if command == "fmt"
            else ["--workspace", str(tmp_path), "check", "X"])
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"ERROR: {path}: {message}\n"


def test_fmt_leaves_a_precondition_naming_an_action_unparsed(tmp_path,
                                                              capsys):
    # the action may be one of another file, read only in a workspace
    path = tmp_path / "X.json"
    path.write_text(json.dumps(dict(_U2_DOC, pre={"s": "[U2@s]p",
                                                  "t": "true"})),
                    encoding="utf-8")
    code, out = run(capsys, "fmt", str(path))
    assert code == 0 and json.loads(out)["pre"]["s"] == "[U2@s]p"


def test_fmt_idempotent(capsys):
    path = FIXTURES / "M.json"
    code, out = run(capsys, "fmt", str(path))
    assert code == 0 and out == path.read_text(encoding="utf-8")


def test_fmt_dot(capsys):
    code, out = run(capsys, "fmt", str(FIXTURES / "M.json"), "--dot")
    assert code == 0 and out.startswith("digraph")


def test_fmt_dot_of_an_action_pinned(capsys):
    # preconditions as labels, the point doubled and the yesterday arrow
    # dashed; the drawn arrows, since the closure is applied on loading
    code, out = run(capsys, "fmt", str(FIXTURES / "U2.json"), "--dot")
    assert code == 0 and out == """\
digraph model {
  "s" [label="s\\np", peripheries=2];
  "t" [label="t\\ntrue"];
  "s" -> "s" [label="a"];
  "t" -> "t" [label="a"];
  "s" -> "s" [label="b"];
  "t" -> "t" [label="b"];
  "t" -> "s" [style=dashed];
}
"""


# formula text over the bundled signature, with update prefixes, names
# outside the signature and stray characters put in at drawn places
_FUZZ_FORMULAS = st.recursive(
    st.sampled_from(["p", "q", "true", "false"]),
    lambda sub: st.one_of(
        st.builds("~{}".format, sub),
        st.builds("({1} {0} {2})".format,
                  st.sampled_from(["&", "|", "->", "<->"]), sub, sub),
        st.builds("{}{}".format,
                  st.sampled_from(["[a]", "<b>", "[Y]", "<Y>"]), sub)),
    max_leaves=8)
_FUZZ_INSERTS = ["[U2@s]", "<U2@t>", "[U3@t]", "[U5@r]", "<U8@s>", "[U2@x]",
                 "[V@s]", "r", "[c]", "$", "9", "é", "♭", "@", "[", ")", " "]


@settings(max_examples=150, deadline=None)
@given(_FUZZ_FORMULAS,
       st.lists(st.tuples(st.integers(0, 60), st.sampled_from(_FUZZ_INSERTS)),
                max_size=2),
       st.sampled_from([["eval", "M", "w"], ["eval", "M", "u"],
                        ["eval", "M8", "w"], ["eval", "M8", "v"],
                        ["eval", "M", "x"], ["eval", "NOSUCH", "w"],
                        ["reduce"], ["reduce"],
                        ["--max-tableau-nodes", "10000", "validity"],
                        ["--max-tableau-nodes", "10000", "validity"]]),
       st.sampled_from(["detl", "ydel", "rdetl"]))
def test_cli_contract_fuzz(text, inserts, command, mode):
    # whatever the input, the command line answers with an exit code of its
    # contract and KEY: value lines, and no exception leaves main; at most
    # two inserts, so update nesting stays at most 2
    for at, insert in inserts:
        at %= len(text) + 1
        text = text[:at] + insert + text[at:]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(["--mode", mode, *command, text])
    assert code in (0, 1, 2, 3)
    assert all(re.fullmatch(r"[A-Z]+: .*", line)
               for line in stdout.getvalue().splitlines())
