"""Bisimulation oracles shared by the test suites and the soundness
sweep: a brute-force greatest bisimulation and a check of a claimed one,
both straight from the definition."""


def greatest_bisimulation(MA, MB):
    """The greatest bisimulation between two models: from all of A×B,
    delete pairs that disagree on atoms or fail forth or back under an
    agent or the step into the past, until none does."""
    def atoms(M, w):
        return {p for p, ws in M.valuation if w in ws}

    def moves(M, w):
        return [M.yesterdays(w)] + [M.succ(a, w) for a in M.sig.agents]

    R = {(w, v) for w in MA.worlds for v in MB.worlds
         if atoms(MA, w) == atoms(MB, v)}
    changed = True
    while changed:
        changed = False
        for w, v in sorted(R):
            for mw, mv in zip(moves(MA, w), moves(MB, v)):
                if not (all(any((w2, v2) in R for v2 in mv) for w2 in mw)
                        and all(any((w2, v2) in R for w2 in mw) for v2 in mv)):
                    R.discard((w, v))
                    changed = True
                    break
    return R


def verify_bisimulation(A, B, relation):
    """Re-check a claimed bisimulation: nonempty, atoms agree, forth and
    back for every epistemic relation and for the step into the past."""
    assert relation, "empty relation"
    MA, MB = A.model, B.model
    assert (A.point, B.point) in relation

    def moves(M, w):
        out = {("Y",): set(M.yesterdays(w))}
        for a in M.sig.agents:
            out[("K", a)] = set(M.succ(a, w))
        return out

    for w, v in relation:
        assert MA.atoms_at(w) == MB.atoms_at(v), (w, v)
        mw, mv = moves(MA, w), moves(MB, v)
        for rel in mw:
            for w2 in mw[rel]:
                assert any((w2, v2) in relation for v2 in mv[rel]), \
                    (w, v, rel, w2, "forth")
            for v2 in mv[rel]:
                assert any((w2, v2) in relation for w2 in mw[rel]), \
                    (w, v, rel, v2, "back")
