import json

import pytest

from detl.cli import main

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
    ("[a]" * 3000 + "[U2@s]q", 1, "COUNTERMODEL: ")],
    ids=["not", "not-update", "implies", "yesterday-boxes", "boxes",
         "boxes-update"])
def test_validity_deep_input(capsys, text, code, key):
    # the parser, the reduction, the tableau and the countermodel walk
    # loop over such runs
    got, out = run(capsys, "validity", text)
    assert got == code and key in out


def test_reduce_deep_negation(capsys):
    # the printer folds runs of prefix operators in a loop
    code, out = run(capsys, "reduce", "~" * 3000 + "p")
    assert code == 0 and out == "REDUCED: " + "~" * 3000 + "p\n"
    code, out = run(capsys, "reduce", "<a>[Y]~<Y>[b]" * 600 + "p")
    assert code == 0 and out == "REDUCED: " + "<a>[Y]~<Y>[b]" * 600 + "p\n"


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


def test_validity(tmp_path, capsys):
    code, out = run(capsys, "validity", "[a](p -> p)")
    assert code == 0 and out == "VERDICT: VALID\n"
    counter = tmp_path / "cm.json"
    code, out = run(capsys, "validity", "p", "--countermodel", str(counter))
    assert code == 1 and "VERDICT: INVALID" in out
    assert counter.exists()


def test_bisim(capsys):
    code, out = run(capsys, "bisim", "M", "w", "M8", "w")
    assert code == 1 and "NOT-BISIMILAR" in out


def test_sharp(tmp_path, capsys):
    out_file = tmp_path / "S.json"
    code, out = run(capsys, "sharp", "U8", str(out_file))
    assert code == 0 and "EVENTS: 3" in out
    doc = json.loads(out_file.read_text(encoding="utf-8"))
    assert "♭" in doc["events"]
    assert sorted(map(tuple, doc["yesterday"])) == [("♭", "s"), ("♭", "t")]


@pytest.mark.parametrize("figure", ["fig1", "fig2", "fig3", "fig4", "fig5",
                                    "fig8", "fig9", "fig10"])
def test_demo(capsys, figure):
    code, out = run(capsys, "demo", figure)
    assert code == 0
    assert "FAIL" not in out and "PASS" in out


def test_fmt_idempotent(capsys):
    path = FIXTURES / "M.json"
    code, out = run(capsys, "fmt", str(path))
    assert code == 0 and out == path.read_text(encoding="utf-8")


def test_fmt_dot(capsys):
    code, out = run(capsys, "fmt", str(FIXTURES / "M.json"), "--dot")
    assert code == 0 and out.startswith("digraph")
