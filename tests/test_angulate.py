"""Homotopy category of projectives, cones, angles and their axioms."""

import pytest

from deqcert import angulate
from deqcert.algebra import ModuleRep, kernel_module, projective
from deqcert.angulate import KbProjCat, NAngle, cone_triangle, verify_theorem2
from deqcert.catideal import SubcatSpec, minimal_right_approximation
from deqcert.category import Mor
from deqcert.complexes import Complex
from deqcert.errors import HypothesisError, InputError, InternalConsistencyError
from deqcert.exactla import FieldSpec, Subspace
from deqcert.presets import a2, a2_triangle, a3, cyclic_nakayama

import oracles
from oracles import (
    composites_vanish,
    equal,
    identity_angle,
    lemma_nangle_check,
    rotate_angle,
    sum_angles,
    verify_weak_axioms,
    zero_object,
)


def a2_cat():
    fx = a2()
    return fx, KbProjCat(fx.algebra)


def test_stalk_objects_and_hom():
    fx, cat = a2_cat()
    p1 = cat.stalk_obj(fx.projectives["1"])
    p2 = cat.stalk_obj(fx.projectives["2"])
    assert cat.hom(p1, p1).dim == 1
    assert cat.hom(p2, p1).dim == 1
    assert cat.hom(p1, p2).dim == 0
    # no maps into a shifted copy: stalks have no higher self-extensions here
    assert cat.hom(p1, cat.sigma.obj(p1, 1)).dim == 0


def test_object_requires_certified_projectives():
    fx, cat = a2_cat()
    with pytest.raises(InputError):
        cat.stalk_obj(fx.simples["1"])  # S1 is not projective


def test_shift_is_strict_and_cached():
    fx, cat = a2_cat()
    p1 = cat.stalk_obj(fx.projectives["1"])
    a = cat.sigma.obj(cat.sigma.obj(p1, 1), 2)
    b = cat.sigma.obj(p1, 3)
    assert a is b
    assert cat.sigma.obj(a, -3) is p1


def test_shift_functor_on_morphisms():
    fx, cat = a2_cat()
    sigma = cat.sigma
    p1 = cat.stalk_obj(fx.projectives["1"])
    p2 = cat.stalk_obj(fx.projectives["2"])
    f = cat.hom(p2, p1).basis[0]
    sf = sigma.mor(f, 2)
    assert sf.src is cat.sigma.obj(p2, 2) and sf.tgt is cat.sigma.obj(p1, 2)
    assert equal(sigma.mor(sf, -2), f)


def test_hom_in_homotopy_category_mods_out_homotopy():
    # over k[x]/(x^2) the stalk P and its shift are linked by x-multiplication
    fx = cyclic_nakayama(2, 2)
    cat = KbProjCat(fx.algebra)
    base = fx.algebra.modcat
    p1 = fx.projectives["1"]
    p2 = fx.projectives["2"]
    u = base.hom(p1, p2).basis[0]
    v = base.hom(p2, p1).basis[0]
    cx = Complex(base, 0, [p1, p2], [u])
    # endomorphisms of the two-term complex modulo homotopy
    hs = cat.hom(cat.object(cx), cat.object(cx))
    assert hs.dim >= 1


def proj_resolution_complex(cat: KbProjCat, module: ModuleRep):
    """A bounded complex of projectives homotopy-representing the module.

    The resolution is placed in degrees <= 0 with the degree-0 cover of the
    module on the right; raises HypothesisError if projective dimension
    exceeds 8.  Each syzygy cover is minimized.
    """
    algebra = cat.algebra
    base = cat.base
    spec = SubcatSpec(base, [projective(algebra, v) for v in algebra.vertices()])
    if module.total_dim == 0:
        return zero_object(cat)

    steps = []  # (cover object, map into the previous cover or the module)
    target, incl_prev = module, None
    for _ in range(9):
        if not any(base.hom(g, target).dim for g in spec.generators):
            raise InternalConsistencyError("no projective cover of a nonzero module")
        data, f = minimal_right_approximation(base, spec, target)
        steps.append((data.obj, f.then(incl_prev) if incl_prev is not None else f))
        target, incl_prev = kernel_module(f)
        if target.total_dim == 0:
            break
    else:
        raise HypothesisError("module has no projective resolution within the length bound")

    objs = [p for p, _ in reversed(steps)]
    diffs = [f for _, f in reversed(steps[1:])]
    return cat.object(Complex(base, -(len(objs) - 1), objs, diffs))


def test_resolution_complex_a3():
    fx = a3()
    cat = KbProjCat(fx.algebra)
    res = proj_resolution_complex(cat, fx.simples["1"])
    # S1 over the linear A3 quiver has resolution P2 -> P1
    degs = list(res.degrees())
    assert len(degs) == 2 and res.hi == 0
    assert res.obj(0).dims == fx.projectives["1"].dims
    assert res.obj(-1).dims == fx.projectives["2"].dims


def test_cone_triangle_composites_vanish():
    fx = a2_triangle()
    tri = fx.triangle
    assert composites_vanish(tri)
    # the cone of P2 -> P1 is the two-term complex for S1
    cone = tri.objects[2]
    assert sum(sum(cone.obj(i).dims.values()) for i in cone.degrees()) == 3


def test_rotation_and_identity_angles():
    fx = a2_triangle()
    cat = fx.cat
    rot = rotate_angle(cat, fx.triangle)
    assert composites_vanish(rot)
    rot2 = rotate_angle(cat, rot)
    assert composites_vanish(rot2)
    ida = identity_angle(cat, cat.sigma, fx.x)
    assert composites_vanish(ida)


def test_sum_of_angles():
    fx = a2_triangle()
    s = sum_angles(fx.cat, fx.triangle, fx.triangle)
    assert composites_vanish(s)


def test_weak_axioms_on_cone_triangles():
    fx = a2_triangle()
    report = verify_weak_axioms(fx.cat, fx.cat.sigma, [fx.triangle])
    assert report["ok"], report
    assert report["fillers"]  # at least one filler square was solved


@pytest.mark.parametrize("char", [0, 2, 3])
def test_weak_axioms_reject_a_triangle_with_zero_connecting_map(char):
    # the copy of the a2 triangle with connecting map zero has vanishing
    # composites, but some commuting square into it has no filler
    fx = a2_triangle(FieldSpec(char))
    cat, tri = fx.cat, fx.triangle
    zero = cat.zero_mor(tri.objects[2], tri.sigma.obj(tri.objects[0]))
    split = NAngle(tri.sigma, tri.objects, tri.maps, zero)
    assert composites_vanish(split)
    report = verify_weak_axioms(cat, cat.sigma, [tri, split])
    assert False in report["fillers"] and report["ok"] is False, report
    assert report["identity"] and report["sums"] and report["rotations"]


def test_weak_axiom_fillers_make_every_square_commute(monkeypatch):
    # the report keeps booleans only; check the maps the solver found
    fx = a3()
    cat = KbProjCat(fx.algebra)
    x = cat.stalk_obj(fx.projectives["3"])
    y = cat.stalk_obj(fx.projectives["2"])
    z = cat.stalk_obj(fx.projectives["1"])
    angles = [cone_triangle(cat, cat.hom(x, y).basis[0]), cone_triangle(cat, cat.hom(y, z).basis[0])]
    seen = []
    fill = oracles._fill_angle_square

    def recording(cat, sigma, src, tgt, h1, h2):
        out = fill(cat, sigma, src, tgt, h1, h2)
        seen.append((src, tgt, [h1, h2] + (out or [])))
        return out

    monkeypatch.setattr(oracles, "_fill_angle_square", recording)
    report = verify_weak_axioms(cat, cat.sigma, angles)
    assert report["ok"], report
    assert len(seen) == len(report["fillers"]) > 0
    assert any(not h.is_zero() for _, _, hs in seen for h in hs[2:])
    for src, tgt, hs in seen:
        assert len(hs) == src.n
        for k in range(src.n - 1):
            assert equal(hs[k].then(tgt.maps[k]), src.maps[k].then(hs[k + 1]))
        assert equal(hs[-1].then(tgt.connecting), src.connecting.then(cat.sigma.mor(hs[0])))


def test_lemma_exactness_for_cone():
    fx = a2_triangle()
    cat = fx.cat
    probes = [fx.m, fx.x, fx.triangle.objects[2]]
    report = lemma_nangle_check(cat, fx.triangle, probes, window=2)
    assert report["ok"], report


def test_lemma_exactness_a3_cone():
    fx = a3()
    cat = KbProjCat(fx.algebra)
    x = cat.stalk_obj(fx.projectives["3"])
    y = cat.stalk_obj(fx.projectives["2"])
    f = cat.hom(x, y).basis[0]
    tri = cone_triangle(cat, f)
    report = lemma_nangle_check(cat, tri, [x, y], window=2)
    assert report["ok"], report


def _a3_cone(field):
    """The cone triangle of the a3 map P3 -> P2, as stalks in K^b(proj)."""
    fx = a3(field)
    cat = KbProjCat(fx.algebra)
    x, y = (cat.stalk_obj(fx.projectives[v]) for v in "32")
    return cat, cone_triangle(cat, cat.hom(x, y).basis[0])


@pytest.mark.parametrize("char", [0, 2, 3])
def test_lemma_exactness_rejects_a_zero_connecting_map(char):
    # negative control: the copies of the a2 triangle and of the a3 cone
    # with connecting map zero have vanishing composites, but Hom from and
    # into their own terms is exact neither way; the triangles and their
    # rotations pass with the same probes
    field = FieldSpec(char)
    fx = a2_triangle(field)
    for cat, tri in ((fx.cat, fx.triangle), _a3_cone(field)):
        probes = tri.objects
        for ang in (tri, rotate_angle(cat, tri)):
            assert lemma_nangle_check(cat, ang, probes, window=2)["ok"]
        zero = cat.zero_mor(tri.objects[2], tri.sigma.obj(tri.objects[0]))
        split = NAngle(tri.sigma, tri.objects, tri.maps, zero)
        report = lemma_nangle_check(cat, split, probes, window=2)
        assert report["composites"], report
        assert not report["covariant_exact"] and not report["contravariant_exact"], report


def test_verify_theorem2_a2_triangle():
    fx = a2_triangle()
    cert = verify_theorem2(fx.cat, fx.cat.sigma, fx.triangle, fx.m)
    assert cert.passed, cert.flags
    assert cert.flags["theta_well_defined"]
    assert cert.flags["kernels_equal"]
    assert len(cert.ring_left.labels) == 3
    assert len(cert.ring_right.labels) == 3


def test_theorem2_hypothesis_error_carries_a_map_that_does_not_factor():
    # with m = X, the identity of X does not factor through X -> M
    fx = a2_triangle()
    cat, f = fx.cat, fx.triangle.maps[0]
    with pytest.raises(HypothesisError, match="first map") as err:
        verify_theorem2(cat, cat.sigma, fx.triangle, fx.x)
    w = err.value.witness
    assert w.src is fx.x and w.tgt is fx.x and not w.is_zero()
    through = Subspace.from_vectors(
        cat.field, cat.hom(fx.x, fx.x).dim, [f.then(u).coords() for u in cat.hom(f.tgt, fx.x).basis]
    )
    assert not through.contains(w.coords())


@pytest.mark.parametrize("char", [0, 2, 3])
def test_theorem2_refuses_a_middle_term_outside_add_m(char):
    # the cone triangle of (a, 1): P2 -> P1 + P2 over a2 with M = P1 gets past
    # both approximation checks, but P1 + P2 is not in add(P1); a certificate
    # would pair the A2 path algebra with M_2(k), which are not derived
    # equivalent
    fx = a2(FieldSpec(char))
    cat = KbProjCat(fx.algebra)
    base = fx.algebra.modcat
    p1, p2 = fx.projectives["1"], fx.projectives["2"]
    s12 = base.direct_sum([p1, p2])
    f = base.hom(p2, p1).basis[0].then(s12.injections[0]) + s12.injections[1]
    tri = cone_triangle(cat, Mor(cat, cat.stalk_obj(p2), cat.stalk_obj(s12.obj), {0: f}))
    with pytest.raises(HypothesisError, match="degree 1 is not in add") as err:
        verify_theorem2(cat, cat.sigma, tri, cat.stalk_obj(p1))
    assert err.value.witness == {"degree": 1, "term": tri.objects[1]}


def test_verify_theorem2_rings_are_rings():
    fx = a2_triangle()
    cert = verify_theorem2(fx.cat, fx.cat.sigma, fx.triangle, fx.m)
    cert.ring_left.to_algebra()
    cert.ring_right.to_algebra()


def test_doubled_theta_fails_exactly_the_ring_map_flags(monkeypatch):
    # 2·theta over Q is still surjective with the same kernel, but it maps
    # 1 to 2 and f·g to 2·theta(f)·theta(g) instead of 4·theta(f)·theta(g)
    fx = a2_triangle()
    certify = angulate._certify

    def doubled(*args):
        theta_of = args[-1]
        return certify(*args[:-1], lambda f: theta_of(f).scale(2))

    monkeypatch.setattr(angulate, "_certify", doubled)
    cert = verify_theorem2(fx.cat, fx.cat.sigma, fx.triangle, fx.m)
    assert {k for k, v in cert.flags.items() if not v} == {"multiplicative", "unital"}
    assert cert.data["multiplicative_witness"] == (0, 0, "theta")


def test_theorem2_computes_each_ideal_once(monkeypatch):
    # the J ideal of End(Y+M) serves both theta_well_defined and the
    # right quotient category; it is computed once and read back
    fx = a2_triangle()
    calls = {}
    ideal_space = angulate.ideal_space

    def counting(cat, spec, x, y, kind):
        key = (x.key, y.key, kind)
        calls[key] = calls.get(key, 0) + 1
        return ideal_space(cat, spec, x, y, kind)

    monkeypatch.setattr(angulate, "ideal_space", counting)
    cert = verify_theorem2(fx.cat, fx.cat.sigma, fx.triangle, fx.m)
    assert cert.passed
    assert calls and max(calls.values()) == 1
    ym = fx.cat.direct_sum([fx.triangle.objects[-1], fx.m]).obj
    assert calls[(ym.key, ym.key, "J")] == 1


@pytest.mark.parametrize("char", [0, 2, 101])
def test_zero_j_ideal_fails_theta_well_defined(monkeypatch, char):
    # over cyclic_nakayama(2,3) the cone of P1 -> P2 has J != 0, and theta's
    # homogeneous solutions lie in J but not in the zero ideal
    fx = cyclic_nakayama(2, 3, FieldSpec(char))
    cat = KbProjCat(fx.algebra)
    p1, p2 = fx.projectives["1"], fx.projectives["2"]
    x, m = cat.stalk_obj(p1), cat.stalk_obj(p2)
    tri = cone_triangle(cat, Mor(cat, x, m, {0: fx.algebra.modcat.hom(p1, p2).basis[0]}))
    ideal_space = angulate.ideal_space

    def zero_j(cat, spec, a, b, kind):
        if kind == "J":
            return Subspace.zero(cat.field, cat.hom(a, b).dim)
        return ideal_space(cat, spec, a, b, kind)

    assert verify_theorem2(cat, cat.sigma, tri, m).passed
    monkeypatch.setattr(angulate, "ideal_space", zero_j)
    cert = verify_theorem2(cat, cat.sigma, tri, m)
    assert {k for k, v in cert.flags.items() if not v} == {
        "theta_well_defined",
        "theta_surjective",
        "multiplicative",
        "dim_match",
    }
    assert cert.data["multiplicative_witness"] == (5, 4, "theta")
