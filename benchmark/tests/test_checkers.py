"""Each workload's checker accepts the program's right answers and
rejects a flipped verdict and a wrong world count."""

import types

import pytest

import cli_session
import detl
import gen
import harness
import model_check
import update_chain
import validity

NULL = harness.NullTracer()


@pytest.fixture(scope="module")
def mc():
    inputs = model_check.make_inputs(1, None)
    return inputs, model_check.build(detl, inputs, NULL, None)


def recheck(state, inputs):
    state.errors = []
    return model_check.verify(state, inputs)


@pytest.mark.parametrize("mode", ["detl", "ydel", "rdetl"])
def test_model_check_rejects_a_flipped_answer(mc, mode):
    inputs, state = mc
    assert recheck(state, inputs) == []
    i = next(k for k, q in enumerate(state.queries) if q[0] == mode)
    good = state.answers[i]
    state.answers[i] = {True: False, False: True,
                        "true": "false", "false": "true"}[good]
    try:
        assert recheck(state, inputs)
    finally:
        state.answers[i] = good


def test_model_check_rejects_a_wrong_world_count(mc):
    inputs, state = mc
    key = next(iter(state.updated))
    state.updated[key] += 1
    try:
        assert any("worlds" in e for e in recheck(state, inputs))
    finally:
        state.updated[key] -= 1


@pytest.fixture(scope="module")
def chain_step(tmp_path_factory):
    directory = tmp_path_factory.mktemp("step")
    chain = update_chain.draw_chain(gen.new_rng(1, "test"))
    M = model_check.build_model(detl, chain["model"])
    U = model_check.build_action(detl, M.sig, chain["steps"][0])
    P, out = update_chain.step(detl, M, U, True, chain["point"], NULL,
                               directory)
    return types.SimpleNamespace(M=M, U=U, action=chain["steps"][0], P=P,
                                 out=out, point=chain["point"],
                                 directory=directory)


def check(s, P=None, **changes):
    out = dict(s.out, **changes)
    return update_chain.check_step(detl, s.M, s.action, True, s.point,
                                   s.P if P is None else P, out, s.directory)


def test_update_chain_accepts_a_right_step(chain_step):
    assert check(chain_step) == []


def test_update_chain_rejects_flipped_verdicts(chain_step):
    s = chain_step
    lost = detl.PropertyReport("synchronicity", False, ("x",))
    assert check(s, props=dict(s.out["props"], synchronicity=lost))
    assert check(s, restricted=detl.PropertyReport("restricted", False, ()))
    assert check(s, bisim=None)


def test_update_chain_rejects_a_wrong_world_count(chain_step):
    s = chain_step
    smaller = detl.generated_submodel(s.P, f"{s.point}|♭")
    assert len(smaller.worlds) < len(s.P.worlds)
    assert any("worlds" in b for b in check(s, P=smaller))


def test_validity_checker():
    rng = gen.new_rng(1, "test")
    actions, items = validity.draw_round(rng, 0)
    sig = detl.Signature(gen.AGENTS, gen.ATOMS)
    registry = {a["name"]: model_check.build_action(detl, sig, a)
                for a in actions}
    by_name = {a["name"]: a for a in actions}
    models = [validity.oracle.plain_model(gen.restricted_model(rng, 4, (1,)))]
    seen = set()
    for family, expect, f in items:
        result = detl.validity(detl.parse(gen.render(f), sig, registry))
        assert validity.check(family, expect, f, by_name, result,
                              models) == []
        if expect is True:
            # flipped: a valid formula reported invalid, any countermodel
            M = detl.PointedModel(detl.KripkeModel(
                sig=sig, worlds=("w",), epistemic={}, yesterday=(),
                valuation={}), "w")
            assert validity.check(family, expect, f, by_name,
                                  (False, M), models)
            seen.add("valid")
        if expect is False:
            assert validity.check(family, expect, f, by_name,
                                  (True, None), models)
            seen.add("invalid")
            # a countermodel that satisfies the formula
            model = satisfying(detl, sig, f, by_name)
            if model is not None:
                assert validity.check(family, None, f, by_name,
                                      (False, model), models)
                seen.add("satisfied")
    assert seen == {"valid", "invalid", "satisfied"}


def satisfying(detl, sig, f, actions):
    """A one-world pointed model where f holds, found by trying all
    valuations and loop shapes; None if there is none."""
    for p in (0, 1):
        for q in (0, 1):
            for loop in (0, 1):
                M = detl.KripkeModel(
                    sig=sig, worlds=("w",),
                    epistemic={a: {("w", "w")} if loop else set()
                               for a in gen.AGENTS},
                    yesterday=(),
                    valuation={"p": {"w"} if p else set(),
                               "q": {"w"} if q else set()})
                if validity.oracle.evaluate(M, "w", f, actions):
                    return detl.PointedModel(M, "w")
    return None


@pytest.fixture(scope="module")
def session(tmp_path_factory):
    work = tmp_path_factory.mktemp("cli")
    ctx = types.SimpleNamespace(work=work, src=None)
    inputs = cli_session.make_inputs(1, ctx)
    return inputs, cli_session.script(detl, inputs, work / "out")


def test_cli_rejects_a_flipped_result(session):
    inputs, cmds = session
    doc = inputs["files"]["W.json"]
    evals = [c for c in cmds if c[0] == "eval"]
    for sub, args, chk in evals[:3]:
        verdicts = [cli_session.judge(sub, args, chk, code,
                                      f"RESULT: {r}\n", "", doc)[0]
                    for code, r in ((0, "true"), (1, "false"))]
        assert sorted(verdicts) == ["ok", "wrong"]


def test_cli_rejects_a_wrong_world_count(session):
    inputs, cmds = session
    doc = inputs["files"]["W.json"]
    sub, args, chk = next(c for c in cmds if c[0] == "update")
    problem = chk(0, ["WORLDS: 0", "WROTE: x"])
    assert problem and "WORLDS" in problem
    assert cli_session.judge(sub, args, chk, 0, "WORLDS: 0\nWROTE: x\n",
                             "", doc)[0] == "wrong"


def test_cli_failure_and_format_checks(session):
    inputs, cmds = session
    doc = inputs["files"]["W.json"]
    sub, args, chk = cmds[-1]
    assert args[-1].startswith("~~~")
    crash = "Traceback (most recent call last):\nRecursionError: ..."
    assert cli_session.judge(sub, args, chk, 1, "", crash, doc)[0] == \
        "failed"
    assert cli_session.judge(sub, args, chk, 0, "RESULT: true\n", "",
                             doc)[0] == "ok"
    assert cli_session.judge(sub, args, chk, 0, "result true\n", "",
                             doc)[0] == "wrong"
    assert cli_session.judge(sub, args, chk, 1, "RESULT: false\n", "",
                             doc)[0] == "wrong"
    other = "Traceback (most recent call last):\nImportError: ..."
    assert cli_session.judge(sub, args, chk, 1, "", other, doc)[0] == "wrong"
    good = cli_session.canonical_bytes(doc).decode()
    fmt = ["fmt", "W.json"]
    assert cli_session.judge("fmt", fmt, None, 0, good, "", doc)[0] == "ok"
    assert cli_session.judge("fmt", fmt, None, 0, good.replace("w1", "w01"),
                             "", doc)[0] == "wrong"


def test_cli_crash_of_another_command_is_wrong(session):
    """Only the deep-negation eval may count as failed: any other
    command that crashes or prints nothing makes the run incorrect."""
    inputs, cmds = session
    doc = inputs["files"]["W.json"]
    crash = "Traceback (most recent call last):\nRecursionError: ..."
    for sub, args, chk in cmds[:-1]:
        for code, stderr in ((1, crash), (1, ""), (-11, "")):
            assert cli_session.judge(sub, args, chk, code, "", stderr,
                                     doc)[0] == "wrong", (sub, args)


def test_validity_update_nesting():
    rng = gen.new_rng(2, "test")
    depth = {}
    for r in range(30):
        _, items = validity.draw_round(rng, r)
        for family, _, f in items:
            depth.setdefault(family, set()).add(gen.update_nesting(f))
    assert depth == {"invalid": {1, 2}, "reduction-axiom": {1, 2},
                     "k-axiom": {2}, "random": {3}}


def test_update_chain_checks_its_warm_up(tmp_path):
    ctx = types.SimpleNamespace(work=tmp_path)
    inputs = update_chain.make_inputs(1, ctx)
    state = update_chain.build(detl, inputs, NULL, ctx)
    assert update_chain.verify(state, inputs) == []
    M, point, P, out = state.warm_up[1]
    state.warm_up[1] = (M, point, P, dict(out, bisim=None))
    state.errors = []
    assert update_chain.verify(state, inputs)


def test_validity_checks_its_warm_up():
    inputs = validity.make_inputs(1, None)
    state = validity.build(detl, inputs, NULL, None)
    assert validity.verify(state, inputs) == []
    rnd, results = inputs["warm_up"][0], state.warm_up[0]
    i = next(k for k, item in enumerate(rnd["items"]) if item[1] is True)
    results[i] = (False, None)
    state.errors = []
    assert validity.verify(state, inputs)
