"""Annihilator and factorization ideals, approximations, quotient rings."""

import itertools
import random

import pytest

from deqcert import catideal
from deqcert.angulate import KbProjCat, cone_triangle, verify_theorem2
from deqcert.category import HomSpace, Mor, QuotientCategory
from deqcert.catideal import (
    SubcatSpec,
    approximation_witness,
    end_ring,
    factorization_through,
    ideal_space,
    left_approximation,
    quotient_ring,
    right_approximation,
)
from deqcert.errors import InputError
from deqcert.exactla import FieldSpec, Mat, Subspace, kernel
from deqcert.orbit import AdmissibleSet, OrbitCategory, ShiftAuto
from deqcert.presets import a2, a2_triangle, a3, cyclic_nakayama, kxx

from draws import random_mor
from oracles import equal, lemma_ann_verify


def a2_setup():
    fx = a2()
    cat = fx.algebra.modcat
    return fx, cat, SubcatSpec(cat, [fx.projectives["1"]])


def test_annihilators_by_hand_a2():
    fx, cat, spec = a2_setup()
    p1, s1, s2 = fx.projectives["1"], fx.simples["1"], fx.simples["2"]
    # the only map S2 -> P1 is the socle inclusion, which is nonzero, so no
    # endomorphism of S2 is killed by postcomposition into add(P1)
    assert ideal_space(cat, spec, s2, s2, "L").dim == 0
    # there is no map P1 -> S2 at all, so precomposition kills nothing
    assert ideal_space(cat, spec, s2, s2, "R").dim == 1
    # End of the two-term sum is annihilator-free on both sides
    both = cat.direct_sum([p1, s2]).obj
    assert cat.hom(both, both).dim == 3
    assert ideal_space(cat, spec, both, both, "L").dim == 0
    other = cat.direct_sum([s1, p1]).obj
    assert ideal_space(cat, spec, other, other, "R").dim == 0


def test_factorization_ideal_a2():
    fx, cat, spec = a2_setup()
    p1, s1, s2 = fx.projectives["1"], fx.simples["1"], fx.simples["2"]
    # socle inclusion S2 -> P1 trivially factors through P1
    assert factorization_through(cat, spec, s2, p1).dim == 1
    # S2 -> P1 -> S1 is zero: the image sits in the part S1 kills
    assert factorization_through(cat, spec, s2, s1).dim == 0
    # both intersection ideals sit inside the factorization span
    for kind in ("I", "J"):
        sub = ideal_space(cat, spec, p1, p1, kind)
        assert factorization_through(cat, spec, p1, p1).contains_subspace(sub)


def test_ideal_space_rejects_unknown_kind():
    fx, cat, spec = a2_setup()
    with pytest.raises(InputError):
        ideal_space(cat, spec, fx.simples["1"], fx.simples["1"], "Q")


def test_approximations_a2():
    fx, cat, spec = a2_setup()
    s1 = fx.simples["1"]
    data, f = right_approximation(cat, spec, s1)
    assert f.tgt is s1
    assert approximation_witness(cat, spec, f, "right") is None
    data, g = left_approximation(cat, spec, fx.simples["2"])
    assert g.src is fx.simples["2"]
    assert approximation_witness(cat, spec, g, "left") is None
    # the zero map is not a right approximation when maps exist; the witness
    # is a map P1 -> S1 outside the (zero) span of maps through it
    zero = cat.zero_mor(data.obj, s1)
    witness = approximation_witness(cat, spec, zero, "right")
    assert witness.src is fx.projectives["1"] and witness.tgt is s1
    assert not witness.is_zero()


def _is_approximation(cat, spec, f, side):
    """The reference: every map from a generator into f's target (side
    "right") or from f's source into a generator ("left") lies in the span
    of the composites through f, each taken with Mor.then."""
    for g in spec.generators:
        if side == "right":
            space = cat.hom(g, f.tgt)
            through = [h.then(f).coords() for h in cat.hom(g, f.src).basis]
        else:
            space = cat.hom(f.src, g)
            through = [f.then(h).coords() for h in cat.hom(f.tgt, g).basis]
        if Subspace.from_vectors(cat.field, space.dim, through).dim != space.dim:
            return False
    return True


def test_approximation_witness_is_none_exactly_for_approximations():
    rng = random.Random(5)
    for fx in (a2(), a3(), kxx()):
        cat = fx.algebra.modcat
        spec = SubcatSpec(cat, [fx.projectives["1"]])
        for x in list(fx.projectives.values()) + list(fx.simples.values()):
            data, f = right_approximation(cat, spec, x)
            for cand in (f, random_mor(cat, data.obj, x, rng), cat.zero_mor(data.obj, x)):
                assert (approximation_witness(cat, spec, cand, "right") is None) == (
                    _is_approximation(cat, spec, cand, "right")
                )
            data, g = left_approximation(cat, spec, x)
            for cand in (g, random_mor(cat, x, data.obj, rng), cat.zero_mor(x, data.obj)):
                assert (approximation_witness(cat, spec, cand, "left") is None) == (
                    _is_approximation(cat, spec, cand, "left")
                )
    with pytest.raises(InputError):
        approximation_witness(cat, spec, f, "up")


def test_lemma_characterizations_presets():
    rng = random.Random(9)
    for fx in (a2(), a3(), kxx(), cyclic_nakayama(3, 2)):
        cat = fx.algebra.modcat
        objs = list(fx.projectives.values()) + list(fx.simples.values())
        spec = SubcatSpec(cat, [list(fx.projectives.values())[0]])
        for _ in range(6):
            a, b = rng.choice(objs), rng.choice(objs)
            report = lemma_ann_verify(cat, spec, a, b)
            assert report["ok"], (fx.algebra, a.name, b.name, report)


def test_membership_clauses_fire_for_subcategory_objects():
    fx, cat, spec = a2_setup()
    p1 = fx.projectives["1"]
    report = lemma_ann_verify(cat, spec, p1, fx.simples["1"])
    assert report["member_source"] is True
    report = lemma_ann_verify(cat, spec, fx.simples["2"], p1)
    assert report["member_target"] is True
    report = lemma_ann_verify(cat, spec, fx.simples["2"], fx.simples["1"])
    assert report["member_source"] is None and report["member_target"] is None


def test_ideals_are_two_sided():
    # u.f.v is trilinear, so basis maps u, v and ideal basis vectors f cover
    # every composite; each kind is checked on every pair where it is nonzero
    fx = cyclic_nakayama(3, 2, FieldSpec(5))
    cat = fx.algebra.modcat
    spec = SubcatSpec(cat, [fx.projectives["1"]])
    objs = list(fx.projectives.values()) + list(fx.simples.values())
    nonzero = {}
    for kind in ("L", "R", "F", "I", "J"):
        ideals = {(x.key, y.key): ideal_space(cat, spec, x, y, kind) for x in objs for y in objs}
        nonzero[kind] = 0
        for x, y in itertools.product(objs, objs):
            sub = ideals[x.key, y.key]
            if sub.dim:
                nonzero[kind] += 1
            for f in map(cat.hom(x, y).from_coords, sub.basis):
                for w, z in itertools.product(objs, objs):
                    for u, v in itertools.product(cat.hom(w, x).basis, cat.hom(y, z).basis):
                        comp = u.then(f).then(v)
                        assert ideals[w.key, z.key].contains(comp.coords()), kind
    assert nonzero["L"] == 9 and nonzero["J"] == 2
    assert all(nonzero.values()), nonzero


def test_end_ring_a2_sum():
    fx, cat, spec = a2_setup()
    both = cat.direct_sum([fx.projectives["1"], fx.simples["2"]]).obj
    ring = end_ring(cat, both)
    assert len(ring.labels) == 3
    alg = ring.to_algebra()  # validates associativity and the unit
    assert alg.dim == 3


def test_quotient_ring_by_socle_inclusion_span():
    fx, cat, spec = a2_setup()
    p1, s2 = fx.projectives["1"], fx.simples["2"]
    both = cat.direct_sum([p1, s2]).obj
    space = cat.hom(both, both)
    # the span of the S2 -> P1 component map is a two-sided nilpotent ideal
    ideal = None
    for b in space.basis:
        f = b
        sq = f.then(f)
        if not f.is_zero() and sq.is_zero() and not equal(f, space.zero()):
            cand = Subspace.from_vectors(cat.field, space.dim, [f.coords()])
            closed = True
            for g in space.basis:
                for comp in (f.then(g), g.then(f)):
                    if not cand.contains(comp.coords()):
                        closed = False
            if closed:
                ideal = cand
                break
    assert ideal is not None and ideal.dim == 1
    ring = quotient_ring(cat, both, ideal)
    assert len(ring.labels) == 2
    alg = ring.to_algebra()
    # the quotient is k x k: every element squares to a diagonal scalar pair
    assert alg.dim == 2


def test_ring_quotient_dimension_drop():
    fx, cat, spec = a2_setup()
    p1 = fx.projectives["1"]
    full = end_ring(cat, p1)
    q = quotient_ring(cat, p1, ideal_space(cat, spec, p1, p1, "I"))
    # End(P1) = k and P1 is in add(P1), so I(P1,P1) = L = 0
    assert len(full.labels) == len(q.labels) == 1


# -- ideals decided by structure ---------------------------------------------


def _brute_ideal(cat, gens, x, y, kind):
    """The ideal from pairwise composites alone: L and R as the kernel of
    the composites with every probe map, F as the span of the composites
    through a generator, I and J as intersections."""
    field, space = cat.field, cat.hom(x, y)
    if kind in ("I", "J"):
        ann = _brute_ideal(cat, gens, x, y, "L" if kind == "I" else "R")
        return ann.intersect(_brute_ideal(cat, gens, x, y, "F"))
    if kind == "F":
        vecs = [
            a.then(b).coords()
            for g in gens
            for a in cat.hom(x, g).basis
            for b in cat.hom(g, y).basis
        ]
        return Subspace.from_vectors(field, space.dim, vecs)
    rows = []  # one equation per probe and coordinate of the composite

    def dense(f):
        vec = [field.zero] * cat.hom(f.src, f.tgt).dim
        for k, c in f.coords().items():
            vec[k] = c
        return vec

    for g in gens:
        if kind == "L":
            images = [[dense(f.then(h)) for f in space.basis] for h in cat.hom(y, g).basis]
        else:
            images = [[dense(h.then(f)) for f in space.basis] for h in cat.hom(g, x).basis]
        for per_probe in images:
            rows.extend(map(list, zip(*per_probe)))
    if not rows:
        return Subspace.full(field, space.dim)
    return kernel(Mat(field, rows, len(rows), space.dim))


def _module_objects(fx):
    """A generator, sums of generators (one nested), a non-member and a sum
    with one non-member summand, all made by direct_sum."""
    cat = fx.algebra.modcat
    g = fx.projectives["1"]
    pair = cat.direct_sum([g, g]).obj
    return cat, [g], {
        "generator": g,
        "sum": pair,
        "nested sum": cat.direct_sum([pair, g]).obj,
        "non-member": fx.simples["2"],
        "mixed sum": cat.direct_sum([g, fx.simples["2"]]).obj,
    }


def _cone_objects(field):
    """The cone triangle of P1 -> P2 over cyclic_nakayama(2, 2), where
    I(X+M, X+M) is not zero."""
    fx = cyclic_nakayama(2, 2, field)
    cat = KbProjCat(fx.algebra)
    ps = fx.projectives
    f = fx.algebra.modcat.hom(ps["1"], ps["2"]).basis[0]
    x, m = cat.stalk_obj(ps["1"]), cat.stalk_obj(ps["2"])
    tri = cone_triangle(cat, Mor(cat, x, m, {0: f}))
    y = tri.objects[-1]
    return cat, [m], {
        "generator": m,
        "sum": cat.direct_sum([m, m]).obj,
        "non-member X": x,
        "non-member Y": y,
        "X+M": cat.direct_sum([x, m]).obj,
        "M+Y": cat.direct_sum([m, y]).obj,
    }


def _orbit_objects(field):
    fx = a2_triangle(field)
    ocat = OrbitCategory(fx.cat, ShiftAuto(fx.cat), AdmissibleSet([0, 1]))
    m, x, y = fx.m, fx.x, fx.triangle.objects[-1]
    return ocat, [m], {
        "generator": m,
        "sum": ocat.direct_sum([m, m]).obj,
        "non-member X": x,
        "non-member Y": y,
        "X+M": ocat.direct_sum([x, m]).obj,
    }


@pytest.mark.parametrize("p", [0, 2, 101])
def test_ideal_space_matches_brute_force_on_every_kind(p):
    field = FieldSpec(p)
    setups = [
        ("a3", _module_objects(a3(field))),
        ("cyclic_nakayama(3,2)", _module_objects(cyclic_nakayama(3, 2, field))),
        ("cone triangle", _cone_objects(field)),
        ("orbit", _orbit_objects(field)),
    ]
    nonzero_i = 0
    for name, (cat, gens, objs) in setups:
        spec = SubcatSpec(cat, gens)
        for (xn, x), (yn, y) in itertools.product(objs.items(), repeat=2):
            for kind in "LRFIJ":
                want = _brute_ideal(cat, gens, x, y, kind)
                assert ideal_space(cat, spec, x, y, kind) == want, (name, xn, yn, kind)
                nonzero_i += kind == "I" and want.dim > 0
    assert nonzero_i  # the pairs include proper annihilators that are not zero


def test_structure_rules_read_only_sums_of_generators():
    field = FieldSpec(0)
    cat, gens, objs = _cone_objects(field)
    spec = SubcatSpec(cat, gens)
    xm = objs["X+M"]
    want = _brute_ideal(cat, gens, xm, xm, "L")
    assert want.dim > 0
    # X+M is not in add(M), and its left annihilator is read, not assumed zero
    assert spec.contains(xm) is False
    assert ideal_space(cat, spec, xm, xm, "L") == want
    assert ideal_space(cat, spec, xm, xm, "I") == _brute_ideal(cat, gens, xm, xm, "I")
    # a sum made by direct_sum with one summand outside add(M) is not built
    # from generators, even when its other summands are
    mx = cat.direct_sum([gens[0], gens[0], objs["non-member X"]]).obj
    assert not catideal._from_generators(cat, spec, mx)
    assert catideal._from_generators(cat, spec, objs["sum"])
    assert ideal_space(cat, spec, mx, mx, "L") == _brute_ideal(cat, gens, mx, mx, "L")
    assert ideal_space(cat, spec, mx, mx, "L").dim > 0


def test_theorem2_with_zero_annihilators_builds_no_factorization_span(monkeypatch):
    # the cone triangle of P2 -> P1 over a3 has L = 0 and R = 0 on every pair
    # its certificate reads, so I and J are zero without F
    fx = a3()
    cat = KbProjCat(fx.algebra)
    ps = fx.projectives
    f = fx.algebra.modcat.hom(ps["2"], ps["1"]).basis[0]
    x, m = cat.stalk_obj(ps["2"]), cat.stalk_obj(ps["1"])
    tri = cone_triangle(cat, Mor(cat, x, m, {0: f}))
    calls = []
    real = catideal.factorization_through
    monkeypatch.setattr(catideal, "factorization_through", lambda *a: calls.append(a) or real(*a))
    cert = verify_theorem2(cat, cat.sigma, tri, m)
    assert cert.passed
    assert calls == []


def test_quotient_by_zero_keeps_the_base_basis(monkeypatch):
    fx = a3()
    cat = fx.algebra.modcat
    x = cat.direct_sum([fx.projectives["1"], fx.simples["1"]]).obj
    base = cat.hom(x, x)
    calls = []
    for owner, name in ((Subspace, "quotient_basis"), (HomSpace, "from_coords")):
        real = getattr(owner, name)
        monkeypatch.setattr(
            owner, name, lambda *a, _n=name, _r=real: calls.append(_n) or _r(*a)
        )
    qcat = QuotientCategory(cat, lambda a, b: Subspace.zero(cat.field, cat.hom(a, b).dim))
    space = qcat.hom(x, x)
    assert calls == []
    assert [b.payload for b in space.basis] == [b.payload for b in base.basis]
    rng = random.Random(3)
    for _ in range(5):
        f = random_mor(cat, x, x, rng)
        assert space.coords(f.payload) == base.coords(f.payload)
