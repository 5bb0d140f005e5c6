"""Bounded complexes, Hom-total complexes and homology."""

import random

import pytest

from deqcert.catideal import SubcatSpec, ideal_space
from deqcert.category import Mor, QuotientCategory
from deqcert.complexes import (
    ChainMapCategory,
    Complex,
    HomComplex,
    HomotopyCategory,
    check_thm1_conditions,
    complex_in_quotient,
    homology_dims,
    nonzero_homology,
    stalk,
)
from deqcert.derivedeq import nu_stable_sequence
from deqcert.errors import InputError
from deqcert.presets import a2, a3, cyclic_nakayama, d_split_sequence, nakayama4

from draws import random_mor
from oracles import equal


def s1_resolution(fx):
    """P2 -> P1 in degrees -1, 0; quasi-isomorphic to the simple S1."""
    cat = fx.algebra.modcat
    p1, p2 = fx.projectives["1"], fx.projectives["2"]
    f = cat.hom(p2, p1).basis[0]
    return Complex(cat, -1, [p2, p1], [f])


def test_complex_validation_rejects_nonzero_composite():
    fx = a2()
    cat = fx.algebra.modcat
    p1, p2 = fx.projectives["1"], fx.projectives["2"]
    f = cat.hom(p2, p1).basis[0]
    g = cat.identity(p1)
    with pytest.raises(InputError):
        Complex(cat, 0, [p2, p1, p1], [f, g])  # d^2 = f != 0


def test_stalk_and_degrees():
    fx = a2()
    cat = fx.algebra.modcat
    st = stalk(cat, fx.simples["1"], 2)
    assert st.lo == st.hi == 2
    assert st.obj(2) is fx.simples["1"] and st.obj(0) is None


def length_three_complex():
    """P1 -> P2 -> P1 over the two-vertex cyclic Nakayama algebra; the
    composite is a length-two path, which the relations kill."""
    fx = cyclic_nakayama(2, 2)
    cat = fx.algebra.modcat
    p1, p2 = fx.projectives["1"], fx.projectives["2"]
    u = cat.hom(p1, p2).basis[0]
    v = cat.hom(p2, p1).basis[0]
    return cat, Complex(cat, 0, [p1, p2, p1], [u, v])


def test_shift_sign_and_degrees():
    cat, cx = length_three_complex()
    g = cx.diff(0)
    sh = cx.shift(1)
    assert sh.lo == -1 and sh.hi == 1
    # differentials pick up a sign under the shift
    assert (sh.diff(-1) + g).is_zero()
    sh2 = sh.shift(-1)
    assert equal(sh2.diff(0), cx.diff(0))


def is_chain_endomorphism(cx, f):
    """Do the components f (degree -> morphism) commute with every differential?"""
    for i, d in cx.diffs.items():
        lhs = f[i].then(d) if i in f else cx.cat.zero_mor(d.src, d.tgt)
        rhs = d.then(f[i + 1]) if i + 1 in f else cx.cat.zero_mor(d.src, d.tgt)
        if not (lhs - rhs).is_zero():
            return False
    return True


def test_hom_total_complex_endomorphisms_of_resolution():
    fx = a2()
    cx = s1_resolution(fx)
    ccat = ChainMapCategory(cx.cat)
    # chain endomorphisms: both components equal; no homotopies P1 -> P2
    basis = ccat.hom(cx, cx).basis
    assert len(basis) == 1
    assert ccat.hom_complex(cx, cx).boundaries(0).dim == 0
    assert homology_dims(cx, cx).get(0, 0) == 1
    for cm in basis:
        assert is_chain_endomorphism(cx, cm.payload)


def test_chain_map_composition_and_homotopy_consistency():
    cat, cx = length_three_complex()
    ccat = ChainMapCategory(cat)
    hc = ccat.hom_complex(cx, cx)
    for cm in ccat.hom(cx, cx).basis:
        sq = cm.then(cm)
        assert is_chain_endomorphism(cx, sq.payload)
        flat = hc.vec_from_maps(0, sq.payload)  # {index: nonzero}
        assert all(flat.values()) and hc.cycles(0).contains(flat)


def test_chain_map_composites_leave_out_vanishing_degrees():
    # a degree whose composite vanishes is absent from the composite's
    # payload, and the composite keeps the coordinates of the degreewise one
    fx = cyclic_nakayama(3, 2)
    q, _ = d_split_sequence(fx.algebra, fx.simples["1"])
    ccat = ChainMapCategory(q.cat)
    basis = ccat.hom(q, q).basis
    vanished = 0
    for f in basis:
        for g in basis:
            h = f.then(g)
            assert all(c.payload for c in h.payload.values())
            full = {i: f.payload[i].then(g.payload[i]) for i in f.payload if i in g.payload}
            vanished += len(h.payload) < len(full)
            assert h.coords() == Mor(ccat, q, q, full).coords()
    assert vanished


def random_complex(cat, objs, rng):
    diffs = []
    for a, b in zip(objs, objs[1:]):
        diffs.append(random_mor(cat, a, b, rng))
    # enforce d^2 = 0 for length-2 strings by zeroing the second map
    if len(diffs) == 2 and not diffs[0].then(diffs[1]).is_zero():
        diffs[1] = cat.zero_mor(objs[1], objs[2])
    return Complex(cat, 0, objs, diffs)


def assert_hom_dims_match_homology(x, y):
    """dim H^n of the Hom-total complex equals the chain maps into the
    shifted target modulo the null-homotopic ones, at every degree, both
    from the Hom complex and from the two categories of complexes."""
    ccat, hcat = ChainMapCategory(x.cat), HomotopyCategory(x.cat)
    for n, d in homology_dims(x, y).items():
        y_n = y.shift(n)
        hc = HomComplex(x.cat, x, y_n)
        indep = hc.cycles(0).dim - hc.boundaries(0).dim
        assert indep == d, (n, d, indep)
        assert ccat.hom(x, y_n).dim == hc.cycles(0).dim
        assert hcat.hom(x, y_n).dim == d


def test_homology_dims_vs_chain_map_count_shifted():
    rng = random.Random(13)
    fx = a3()
    cat = fx.algebra.modcat
    projs = list(fx.projectives.values())
    for _ in range(8):
        x = random_complex(cat, [rng.choice(projs) for _ in range(rng.randint(1, 2))], rng)
        y = random_complex(cat, [rng.choice(projs) for _ in range(rng.randint(1, 2))], rng)
        assert_hom_dims_match_homology(x, y)


def total_hom_dim(cat, x, y):
    hc = HomComplex(cat, x, y)
    return sum(hc.dim(n) for n in range(hc.lo, hc.hi + 1))


def test_homology_dims_vs_chain_map_count_over_a_quotient():
    # complexes over the quotient by the maps factoring through P2, the base
    # category that the certificate's homotopy classes live over
    rng = random.Random(17)
    fx = a3()
    cat = fx.algebra.modcat
    spec = SubcatSpec(cat, [fx.projectives["2"]])
    qcat = QuotientCategory(cat, lambda a, b: ideal_space(cat, spec, a, b, "F"))
    projs = list(fx.projectives.values())
    killed = 0
    for _ in range(8):
        x, y = (
            random_complex(cat, [rng.choice(projs) for _ in range(rng.randint(1, 3))], rng)
            for _ in range(2)
        )
        xq, yq = complex_in_quotient(qcat, x), complex_in_quotient(qcat, y)
        assert_hom_dims_match_homology(xq, yq)
        killed += total_hom_dim(qcat, xq, yq) < total_hom_dim(cat, x, y)
    assert killed  # the ideal is nonzero on some sampled pair


def test_hom_complex_diff_squares_to_zero():
    fx = a2()
    cx = s1_resolution(fx)
    hc = HomComplex(cx.cat, cx, cx.shift(1))
    for n in range(hc.lo, hc.hi):
        a, b = hc.diff(n), hc.diff(n + 1)
        if a.shape[1] and b.shape[0]:
            assert (b * a).is_zero()


def length_four_complex():
    """P1 -> P2 -> P1 -> P2 over the two-vertex cyclic Nakayama algebra."""
    cat, cx = length_three_complex()
    p1, p2 = cx.objs[0], cx.objs[1]
    u, v = cx.diff(0), cx.diff(1)
    return cat, Complex(cat, 0, [p1, p2, p1, p2], [u, v, u])


def count_diff_matrices(monkeypatch):
    built = []
    diff_matrix = HomComplex._diff_matrix

    def counting(self, n):
        built.append(n)
        return diff_matrix(self, n)

    monkeypatch.setattr(HomComplex, "_diff_matrix", counting)
    return built


def test_chain_maps_build_only_the_degree_zero_differential(monkeypatch):
    cat, cx = length_four_complex()
    built = count_diff_matrices(monkeypatch)
    ChainMapCategory(cat).hom(cx, cx)
    assert built == [0]


def test_homotopy_classes_build_only_the_differentials_around_degree_zero(monkeypatch):
    cat, cx = length_four_complex()
    built = count_diff_matrices(monkeypatch)
    hcat = HomotopyCategory(cat)
    hcat.hom(cx, cx)
    assert sorted(built) == [-1, 0]
    # the lazily built classes agree with the homology of the whole complex
    assert hcat.hom(cx, cx).dim == homology_dims(cx, cx)[0]


def test_lazy_hom_complex_still_rejects_a_nonzero_composite():
    # P2 -> P1 -> P1 with d.d = the arrow P2 -> P1, built without the check
    fx = a2()
    cat = fx.algebra.modcat
    p1, p2 = fx.projectives["1"], fx.projectives["2"]
    f = cat.hom(p2, p1).basis[0]
    cx = Complex(cat, 0, [p2, p1, p1], [f, cat.identity(p1)], check=False)
    for degrees in ([0, -1], [-1, 0]):
        hc = HomComplex(cat, cx, cx)
        hc.diff(degrees[0])
        with pytest.raises(InputError, match="do not compose to zero"):
            hc.diff(degrees[1])
    with pytest.raises(InputError, match="do not compose to zero"):
        HomotopyCategory(cat).hom(cx, cx)
    with pytest.raises(InputError, match="do not compose to zero"):
        homology_dims(cx, cx)


def test_homology_dims_builds_every_differential_lowest_first(monkeypatch):
    cat, cx = length_four_complex()
    built = count_diff_matrices(monkeypatch)
    dims = homology_dims(cx, cx)
    assert list(dims) == list(range(-3, 4))
    assert built == list(range(-3, 3))
    assert nonzero_homology(cx, cx) == {n: d for n, d in dims.items() if d}
    assert nonzero_homology(cx, cx, dims) == {}


def test_check_thm1_conditions_on_split_sequence():
    fx = cyclic_nakayama(2, 2)
    q, m = d_split_sequence(fx.algebra, fx.simples["1"])
    report = check_thm1_conditions(q, m)
    assert report["ok"] and report["n"] == 1 and report["failing"] == []


def test_check_thm1_conditions_failure_detected():
    fx = a2()
    cat = fx.algebra.modcat
    p1, p2 = fx.projectives["1"], fx.projectives["2"]
    f = cat.hom(p2, p1).basis[0]
    # not a split sequence for add(A): the middle term is too small
    q = Complex(cat, 0, [cat.hom(p2, p2).basis[0].src, p2, p1], [cat.identity(p2), cat.zero_mor(p2, p1)])
    report = check_thm1_conditions(q, p1)
    assert not report["ok"] and report["failing"]


def test_check_thm1_conditions_failing_entries_are_pinned():
    # S2 -> P1 -> S1 with zero maps fails all three conditions; the report
    # lists every nonvanishing (condition, degree, dim) in a fixed order
    fx = cyclic_nakayama(2, 2)
    cat = fx.algebra.modcat
    s1, s2, p1 = fx.simples["1"], fx.simples["2"], fx.projectives["1"]
    report = check_thm1_conditions(Complex(cat, 0, [s2, p1, s1], [None, None]), p1)
    assert report["failing"] == [
        ("c1", 1, 1),
        ("c1", 2, 1),
        ("c2", -1, 1),
        ("c2", 0, 1),
        ("c3", 1, 1),
        ("c3", -1, 1),
    ]
    assert (report["c1"], report["c2"], report["c3"], report["ok"]) == (False,) * 4


def test_condition_c3_builds_only_the_differentials_around_its_degrees(monkeypatch):
    # the default nu-pipeline sequence (n = 17): c1 and c2 read every degree
    # of Hom(M, q) and Hom(q, M), 18 differentials each, and c3 reads one
    # degree each of Hom(X, q) and Hom(q, Y), two differentials each
    fx = nakayama4()
    q = nu_stable_sequence(fx.p, fx.y)
    built = []
    diff_matrix = HomComplex._diff_matrix
    monkeypatch.setattr(
        HomComplex, "_diff_matrix", lambda hc, n: built.append(n) or diff_matrix(hc, n)
    )
    report = check_thm1_conditions(q, fx.p)
    assert report["ok"] and report["n"] == 17
    assert len(built) == 40


def test_check_thm1_conditions_rejects_bad_degrees():
    fx = a2()
    cat = fx.algebra.modcat
    with pytest.raises(InputError):
        check_thm1_conditions(stalk(cat, fx.simples["1"]), fx.projectives["1"])


def self_orthogonality_check(p: Complex, spec: SubcatSpec, variant: str) -> dict:
    """Hypotheses and conclusion of the self-orthogonality lemmas.

    variant "left": p on [0, n] with p^i in the subcategory for i > 0;
    conclusion checked over C/L and C/I.  variant "right": p on [-n, 0]
    with p^i in the subcategory for i < 0; conclusion over C/R and C/J.
    """
    if variant not in ("left", "right"):
        raise InputError("variant must be 'left' or 'right'")
    cat = p.cat
    if len(spec.generators) != 1:
        m_obj = spec.sum_of(spec.generators).obj
    else:
        m_obj = spec.generators[0]
    m_stalk = stalk(cat, m_obj)
    n = p.hi - p.lo
    left = variant == "left"
    hyp1 = not nonzero_homology(m_stalk, p, (0, n) if left else (-n,))
    hyp2 = not nonzero_homology(p, m_stalk, (-n,) if left else (0, n))
    kinds = ("L", "I") if left else ("R", "J")

    conclusion = {}
    for kind in kinds:
        qcat = QuotientCategory(cat, lambda a, b, k=kind: ideal_space(cat, spec, a, b, k))
        pq = complex_in_quotient(qcat, p)
        bad = nonzero_homology(pq, pq, (0,))
        conclusion[kind] = {"self_orthogonal": not bad, "nonzero": bad}
    return {
        "hyp1": hyp1,
        "hyp2": hyp2,
        "conclusion": conclusion,
        "ok": all(c["self_orthogonal"] for c in conclusion.values()),
    }


def test_complex_in_quotient_and_self_orthogonality():
    fx = cyclic_nakayama(2, 2)
    q, m = d_split_sequence(fx.algebra, fx.simples["1"])
    cat = q.cat
    spec = SubcatSpec(cat, [m])
    # truncation [0, n]: X -> Q with Q in add(A)
    p = Complex(cat, 0, [q.obj(0), q.obj(1)], [q.diffs[0]])
    report = self_orthogonality_check(p, spec, "left")
    assert report["hyp1"] and report["hyp2"] and report["ok"]
    with pytest.raises(InputError):
        self_orthogonality_check(p, spec, "middle")


def test_quotient_category_kills_ideal_maps():
    fx = a2()
    cat = fx.algebra.modcat
    spec = SubcatSpec(cat, [fx.projectives["1"]])
    qcat = QuotientCategory(cat, lambda a, b: ideal_space(cat, spec, a, b, "F"))
    s2, p1 = fx.simples["2"], fx.projectives["1"]
    # the socle inclusion factors through add(P1), so it dies in the quotient
    assert cat.hom(s2, p1).dim == 1
    assert qcat.hom(s2, p1).dim == 0
