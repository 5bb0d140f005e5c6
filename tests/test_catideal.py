"""Annihilator and factorization ideals, approximations, quotient rings."""

import random

import pytest

from deqcert.catideal import (
    RingPresentation,
    SubcatSpec,
    approximation_witness,
    end_ring,
    factorization_through,
    ideal_space,
    is_left_approximation,
    is_right_approximation,
    left_approximation,
    lemma_ann_verify,
    quotient_ring,
    random_mor,
    right_approximation,
)
from deqcert.errors import InputError
from deqcert.exactla import FieldSpec, Subspace
from deqcert.presets import a2, a3, cyclic_nakayama, kxx


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
    assert is_right_approximation(cat, spec, f)
    data, g = left_approximation(cat, spec, fx.simples["2"])
    assert g.src is fx.simples["2"]
    assert is_left_approximation(cat, spec, g)
    # the zero map is not a right approximation when maps exist; the witness
    # is a map P1 -> S1 outside the (zero) span of maps through it
    zero = cat.zero_mor(data.obj, s1)
    assert not is_right_approximation(cat, spec, zero)
    witness = approximation_witness(cat, spec, zero, "right")
    assert witness.src is fx.projectives["1"] and witness.tgt is s1
    assert not witness.is_zero()


def test_approximation_witness_is_none_exactly_for_approximations():
    rng = random.Random(5)
    for fx in (a2(), a3(), kxx()):
        cat = fx.algebra.modcat
        spec = SubcatSpec(cat, [fx.projectives["1"]])
        for x in list(fx.projectives.values()) + list(fx.simples.values()):
            data, f = right_approximation(cat, spec, x)
            for cand in (f, random_mor(cat, data.obj, x, rng), cat.zero_mor(data.obj, x)):
                assert (approximation_witness(cat, spec, cand, "right") is None) == (
                    is_right_approximation(cat, spec, cand)
                )
            data, g = left_approximation(cat, spec, x)
            for cand in (g, random_mor(cat, x, data.obj, rng), cat.zero_mor(x, data.obj)):
                assert (approximation_witness(cat, spec, cand, "left") is None) == (
                    is_left_approximation(cat, spec, cand)
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
    rng = random.Random(10)
    fx = cyclic_nakayama(3, 2, FieldSpec(5))
    cat = fx.algebra.modcat
    spec = SubcatSpec(cat, [fx.projectives["1"]])
    objs = list(fx.projectives.values()) + list(fx.simples.values())
    for kind in ("L", "R", "F", "I", "J"):
        for _ in range(15):
            x, y = rng.choice(objs), rng.choice(objs)
            space = cat.hom(x, y)
            sub = ideal_space(cat, spec, x, y, kind)
            if sub.dim == 0:
                continue
            coeffs = [fx.algebra.field.random(rng) for _ in range(sub.dim)]
            f = space.from_coords(
                [sum(c * v for c, v in zip(coeffs, col)) % 5 for col in zip(*sub.basis)]
            )
            w, z = rng.choice(objs), rng.choice(objs)
            u = random_mor(cat, w, x, rng)
            v = random_mor(cat, y, z, rng)
            comp = u.then(f).then(v)
            target = ideal_space(cat, spec, w, z, kind)
            if cat.hom(w, z).dim:
                assert target.contains(list(comp.coords())), kind


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
        if not f.is_zero() and sq.is_zero() and not f.eq(space.zero()):
            coords = list(f.coords())
            cand = Subspace.from_vectors(cat.field, space.dim, [coords])
            closed = True
            for g in space.basis:
                for comp in (f.then(g), g.then(f)):
                    if not cand.contains(list(comp.coords())):
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
