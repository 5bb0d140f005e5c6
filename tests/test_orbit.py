"""Admissible degree sets, orbit categories and graded endomorphism rings."""

import itertools
import random

import pytest

from deqcert.errors import InputError
from deqcert.orbit import (
    AdmissibleSet,
    OrbitCategory,
    QuiverTwistAuto,
    ShiftAuto,
    corollary_orbit_verify,
    ideals_IJ,
    is_admissible,
    yoneda_algebra,
)
from deqcert.presets import a2_triangle, cyclic_nakayama, nakayama4

from draws import random_mor
from oracles import equal, orbit_iso_to_power


def rotation_functor(algebra):
    """Quiver rotation of the 4-cycle: vertex i -> i+1, arrow a_i -> a_{i+1}."""
    verts = ["1", "2", "3", "4"]
    vmap = {verts[i]: verts[(i + 1) % 4] for i in range(4)}
    amap = {f"a{i + 1}": f"a{(i + 1) % 4 + 1}" for i in range(4)}
    return QuiverTwistAuto(algebra, vmap, amap, order=4)


def test_is_admissible_examples():
    assert is_admissible({0})
    assert is_admissible({0, 1, 2, 3})
    assert is_admissible(range(0, 7))
    assert not is_admissible({1, 2})  # missing zero
    assert not is_admissible({0, 1, 2, 4})
    # no finite set can contain both i and -i for i != 0: the triple
    # (-i, i, i) forces 2i in, then inductively every multiple
    assert not is_admissible({-1, 0, 1})


def test_admissible_set_validation():
    s = AdmissibleSet([0, 1, 2])
    assert 2 in s and 3 not in s
    assert len(s) == 3
    with pytest.raises(InputError):
        AdmissibleSet([0, 1, 2, 4])
    with pytest.raises(InputError):
        AdmissibleSet([1, 2])


def test_admissible_set_period_mode():
    s = AdmissibleSet(None, period=4)
    assert list(s) == [0, 1, 2, 3]
    assert s.norm(-1) == 3 and s.norm(6) == 2
    assert -5 in s  # every integer is admissible modulo the period


def test_admissible_helpers():
    # negating, keeping the nonnegative degrees and scaling keep a finite
    # admissible set admissible
    s = AdmissibleSet([0, 1, 2])
    assert sorted(AdmissibleSet([-d for d in s])) == [-2, -1, 0]
    assert sorted(AdmissibleSet([d for d in s if d >= 0])) == [0, 1, 2]
    assert sorted(AdmissibleSet([2 * d for d in s])) == [0, 2, 4]


def test_quiver_twist_is_strict_of_finite_order():
    fx = nakayama4()
    rot = rotation_functor(fx.algebra)
    p1 = fx.projectives["1"]
    once = rot.obj(p1, 1)
    assert once.dims == fx.projectives["2"].dims
    back = rot.obj(p1, 4)
    assert back is p1  # strict: the order-4 power is the identity on objects


@pytest.mark.parametrize("order", [0, -2])
def test_quiver_twist_order_below_one_is_input_error(order):
    # the identity permutation passes the order check for every order
    fx = cyclic_nakayama(2, 2)
    ident = {"1": "1", "2": "2"}
    with pytest.raises(InputError, match="not positive"):
        QuiverTwistAuto(fx.algebra, ident, {"a1": "a1", "a2": "a2"}, order=order)


def test_two_twists_keep_separate_power_caches():
    # each functor knows only the powers it built itself: a second twist
    # applied to the first twist's output twists that module, not its root
    fx = cyclic_nakayama(4, 2)
    rot = rotation_functor(fx.algebra)
    vmap2 = {str(i + 1): str((i + 2) % 4 + 1) for i in range(4)}
    amap2 = {f"a{i + 1}": f"a{(i + 2) % 4 + 1}" for i in range(4)}
    rot2 = QuiverTwistAuto(fx.algebra, vmap2, amap2, order=2)
    p1, p4 = fx.projectives["1"], fx.projectives["4"]
    twisted = rot2.obj(rot.obj(p1, 1), 1)
    assert twisted.proj_summands == ("4",)
    assert twisted.dims == p4.dims
    assert rot2.obj(twisted, 1) is rot.obj(p1, 1)


def test_quiver_twist_functoriality_on_morphisms():
    fx = nakayama4()
    cat = fx.algebra.modcat
    rot = rotation_functor(fx.algebra)
    rng = random.Random(15)
    objs = list(fx.projectives.values())
    for _ in range(10):
        x, y, z = (rng.choice(objs) for _ in range(3))
        f = random_mor(cat, x, y, rng)
        g = random_mor(cat, y, z, rng)
        lhs = rot.mor(f.then(g), 1)
        rhs = rot.mor(f, 1).then(rot.mor(g, 1))
        assert equal(lhs, rhs)


def test_orbit_category_requires_matching_period():
    fx = nakayama4()
    rot = rotation_functor(fx.algebra)
    with pytest.raises(InputError):
        OrbitCategory(fx.algebra.modcat, rot, AdmissibleSet(None, period=3))


def test_orbit_hom_dims_nakayama_rotation():
    fx = nakayama4()
    cat = fx.algebra.modcat
    rot = rotation_functor(fx.algebra)
    phi = AdmissibleSet([0, 1, 2, 3])
    ocat = OrbitCategory(cat, rot, phi)
    p1 = fx.projectives["1"]
    # graded pieces: Hom(P1, F^u P1) = Hom(P1, P_{1+u})
    expected = sum(cat.hom(p1, rot.obj(p1, u)).dim for u in (0, 1, 2, 3))
    assert ocat.hom(p1, p1).dim == expected


def test_orbit_composition_associative():
    fx = nakayama4()
    cat = fx.algebra.modcat
    rot = rotation_functor(fx.algebra)
    ocat = OrbitCategory(cat, rot, AdmissibleSet([0, 1, 2, 3]))
    rng = random.Random(16)
    objs = [fx.projectives["1"], fx.projectives["3"], fx.p]
    for _ in range(20):
        x, y, z, w = (rng.choice(objs) for _ in range(4))
        f = random_mor(ocat, x, y, rng)
        g = random_mor(ocat, y, z, rng)
        h = random_mor(ocat, z, w, rng)
        assert equal(f.then(g).then(h), f.then(g.then(h)))
        assert equal(ocat.identity(x).then(f), f)


def test_orbit_iso_to_power_periodic():
    fx = nakayama4()
    cat = fx.algebra.modcat
    rot = rotation_functor(fx.algebra)
    ocat = OrbitCategory(cat, rot, AdmissibleSet(None, period=4))
    p1 = fx.projectives["1"]
    for i in (1, 2, 3):
        fwd, bwd = orbit_iso_to_power(ocat, p1, i)
        assert equal(fwd.then(bwd), ocat.identity(p1))


def test_yoneda_algebra_dims():
    fx = nakayama4()
    cat = fx.algebra.modcat
    rot = rotation_functor(fx.algebra)
    p1 = fx.projectives["1"]
    full = yoneda_algebra(cat, p1, rot, AdmissibleSet([0, 1, 2, 3]))
    half = yoneda_algebra(cat, p1, rot, AdmissibleSet([0, 2]))
    assert full.dim == 5
    assert half.dim == 3
    full.to_algebra()
    half.to_algebra()


def test_shift_auto_on_homotopy_category():
    fx = a2_triangle()
    sh = ShiftAuto(fx.cat)
    assert sh.obj(fx.m, 2) is fx.cat.sigma.obj(fx.m, 2)
    f = fx.triangle.maps[0]
    sf = sh.mor(f, 1)
    assert sf.src is fx.cat.sigma.obj(f.src, 1)


def test_orbit_composites_leave_out_vanishing_grades():
    # a grade whose term vanishes is absent from the composite's payload
    fx = a2_triangle()
    ocat = OrbitCategory(fx.cat, ShiftAuto(fx.cat), AdmissibleSet([0, 1]))
    objs = fx.triangle.objects
    composites = 0
    for x, y, z in itertools.product(objs, repeat=3):
        for f in ocat.hom(x, y).basis:
            for g in ocat.hom(y, z).basis:
                h = f.then(g)
                assert all(c.payload for c in h.payload.values())
                composites += 1
    assert composites


def test_ideals_identification_shift_orbit():
    fx = a2_triangle()
    sh = ShiftAuto(fx.cat)
    ocat = OrbitCategory(fx.cat, sh, AdmissibleSet([0, 1]))
    report = ideals_IJ(ocat, fx.cat.sigma, fx.triangle, fx.m)
    assert report["hypotheses_ok"], report
    assert report["I_equal"] and report["J_equal"]


def test_ideals_hypothesis_failure_reported():
    fx = a2_triangle()
    sh = ShiftAuto(fx.cat)
    ocat = OrbitCategory(fx.cat, sh, AdmissibleSet([0, 1]))
    # with m = X the first map is no longer a left approximation
    report = ideals_IJ(ocat, fx.cat.sigma, fx.triangle, fx.x)
    assert not report["hypotheses_ok"]
    assert report["I"] is None and report["J"] is None


def test_corollary_orbit_certificate():
    fx = a2_triangle()
    sh = ShiftAuto(fx.cat)
    ocat = OrbitCategory(fx.cat, sh, AdmissibleSet([0, 1]))
    cert = corollary_orbit_verify(ocat, fx.cat.sigma, fx.triangle, fx.m)
    assert cert.passed, cert.flags


def test_quiver_twist_of_a_map_with_absent_slots():
    # a Hom basis map P1 -> P2 has no block at the vertices its image misses;
    # twisting it must move the blocks it has and leave the rest zero
    fx = nakayama4()
    cat = fx.algebra.modcat
    rot = rotation_functor(fx.algebra)
    p1, p2 = fx.projectives["1"], fx.projectives["2"]
    for f in cat.hom(p1, p2).basis:
        assert len(f.payload) < len(p1.slots)
        dense = cat.mor(f.src, f.tgt, dict(f.payload))
        for u in range(4):
            assert rot.mor(f, u).coords() == rot.mor(dense, u).coords()
    assert rot.mor(cat.zero_mor(p1, p2), 1).is_zero()
