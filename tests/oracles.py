"""Test oracles: checkers of the paper's lemmas that the tests hold the
engine to.

The package holds what a verdict runs.  These checks re-derive what a
verdict assumes or implies: the weak axioms of an n-angulation, long
exactness of Hom along an angle, the annihilator characterizations and the
strict isomorphisms X -> F^i X of an orbit category.  No command,
certificate or benchmark runs them.  ``equal`` compares two morphisms of
one Hom space.
"""

from deqcert.algebra import ModuleRep
from deqcert.angulate import KbProjCat, NAngle
from deqcert.catideal import ideal_space, left_approximation, right_approximation
from deqcert.category import Mor, MorphismEquations
from deqcert.complexes import Complex, nonzero_homology, stalk
from deqcert.errors import HypothesisError, InputError, InternalConsistencyError
from deqcert.exactla import Mat, kernel


def equal(f: Mor, g: Mor) -> bool:
    """Equality in the category: f - g has no coordinates (so, in a
    homotopy category, equality up to homotopy)."""
    return (f - g).is_zero()


# -- angles ----------------------------------------------------------------


def all_maps(angle: NAngle):
    """f_1, ..., f_{n-1} and the connecting map f_n."""
    return angle.maps + [angle.connecting]


def composites_vanish(angle: NAngle) -> bool:
    seq = all_maps(angle)
    for a, b in zip(seq, seq[1:]):
        if not a.then(b).is_zero():
            return False
    # wrap around: f_n then Sigma(f_1)
    return seq[-1].then(angle.sigma.mor(angle.maps[0])).is_zero()


def zero_object(cat):
    if isinstance(cat, KbProjCat):
        return cat.object(Complex(cat.base, 0, [ModuleRep.zero(cat.algebra)], [], check=False))
    raise InputError("no canonical zero object for this category")


def identity_angle(cat, sigma, x) -> NAngle:
    zero = zero_object(cat)
    return NAngle(
        sigma,
        [x, x, zero],
        [cat.identity(x), cat.zero_mor(x, zero)],
        cat.zero_mor(zero, sigma.obj(x)),
    )


def rotate_angle(cat, angle: NAngle) -> NAngle:
    """X_2 -> ... -> X_n -> Sigma X_1 -> Sigma X_2, sign (-1)^n on the wrap."""
    sigma = angle.sigma
    sign = cat.field.one if angle.n % 2 == 0 else cat.field.neg(cat.field.one)
    objects = angle.objects[1:] + [sigma.obj(angle.objects[0])]
    maps = angle.maps[1:] + [angle.connecting]
    connecting = sigma.mor(angle.maps[0]).scale(sign)
    return NAngle(sigma, objects, maps, connecting)


def sum_angles(cat, a: NAngle, b: NAngle) -> NAngle:
    if a.n != b.n:
        raise InputError("angle length mismatch")
    sigma = a.sigma
    sums = [cat.direct_sum([x, y]) for x, y in zip(a.objects, b.objects)]
    maps = []
    for i in range(a.n - 1):
        maps.append(
            cat.mor_from_blocks(sums[i], sums[i + 1], [[a.maps[i], None], [None, b.maps[i]]])
        )
    first_shift = cat.direct_sum([sigma.obj(a.objects[0]), sigma.obj(b.objects[0])])
    conn = (
        sums[-1].projections[0].then(a.connecting).then(first_shift.injections[0])
        + sums[-1].projections[1].then(b.connecting).then(first_shift.injections[1])
    )
    # the sum angle's Sigma(X_1 + Y_1) must be the object we connected into;
    # identify via the canonical iso when sigma distributes strictly
    sx = sigma.obj(sums[0].obj)
    if sx.key != first_shift.obj.key:
        iso = _match_shift_of_sum(cat, sigma, sums[0], first_shift)
        conn = conn.then(iso)
    return NAngle(sigma, [s.obj for s in sums], maps, conn)


def _match_shift_of_sum(cat, sigma, sum_data, shift_sum) -> Mor:
    """Canonical map (Sigma a) + (Sigma b) -> Sigma(a + b)."""
    target = sigma.obj(sum_data.obj)
    out = cat.zero_mor(shift_sum.obj, target)
    for proj, inj in zip(shift_sum.projections, sum_data.injections):
        out = out + proj.then(sigma.mor(inj))
    return out


# -- the weak axioms and long exactness ------------------------------------


def solution_basis(eqs: MorphismEquations):
    """A basis of the solutions of eqs with every right-hand side zero, each
    solution the list of its maps h_i."""
    return [
        [
            space.from_coords({j - k: c for j, c in vec.items() if k <= j < k + space.dim})
            for space, k in zip(eqs.spaces, eqs.starts)
        ]
        for vec in eqs.matrix.kernel_basis()
    ]


def _fill_angle_square(cat, sigma, src: NAngle, tgt: NAngle, h1: Mor, h2: Mor):
    """Solve for h3..hn completing a morphism of angles; None if unsolvable.

    Requires h1.then(tgt.maps[0]) == src.maps[0].then(h2).
    """
    n = src.n
    if not equal(h1.then(tgt.maps[0]), src.maps[0].then(h2)):
        raise InputError("the given square does not commute")
    # unknowns h_3..h_n; square j = 2..n-1 reads f_j h_{j+1} - h_j g_j = 0,
    # with the known h_2 g_2 on the right of square 2, and the last square
    # reads h_n g_n = f_n Sigma(h_1).  Below, i = j - 1 indexes the maps.
    equations = []
    for i in range(1, n - 1):
        terms = [(i - 1, src.maps[i], "pre")]
        if i >= 2:
            terms.append((i - 2, -tgt.maps[i], "post"))
        equations.append((cat.hom(src.objects[i], tgt.objects[i + 1]), terms))
    last = cat.hom(src.objects[-1], sigma.obj(tgt.objects[0]))
    equations.append((last, [(n - 3, tgt.connecting, "post")]))
    rhs = [h2.then(tgt.maps[1])] + [None] * (n - 3) + [src.connecting.then(sigma.mor(h1))]
    spaces = [cat.hom(src.objects[i], tgt.objects[i]) for i in range(2, n)]
    return MorphismEquations(cat, spaces, equations).solve(rhs)


def verify_weak_axioms(cat, sigma, angles) -> dict:
    """Check the three axioms on a finite sample of angles.

    For the fillers, each pair of angles contributes a basis of its
    commuting squares (h1, h2), the kernel of f1.h2 - h1.g1.  The filler
    equations have a fixed matrix and right-hand sides linear in (h1, h2),
    so every commuting square has a filler exactly when each basis square
    has one.
    """
    report = {"identity": True, "sums": True, "rotations": True, "fillers": []}
    for ang in angles:
        x = ang.objects[0]
        ida = identity_angle(cat, sigma, x)
        if not composites_vanish(ida):
            report["identity"] = False
        rot = rotate_angle(cat, ang)
        if not composites_vanish(rot):
            report["rotations"] = False
    for a in angles:
        for b in angles:
            s = sum_angles(cat, a, b)
            if not composites_vanish(s):
                report["sums"] = False
    # axiom (3): commuting squares extend
    for src in angles:
        for tgt in angles:
            (x1, x2), (y1, y2) = src.objects[:2], tgt.objects[:2]
            square = (cat.hom(x1, y2), [(1, src.maps[0], "pre"), (0, -tgt.maps[0], "post")])
            squares = MorphismEquations(cat, [cat.hom(x1, y1), cat.hom(x2, y2)], [square])
            for h1, h2 in solution_basis(squares):
                fillers = _fill_angle_square(cat, sigma, src, tgt, h1, h2)
                report["fillers"].append(fillers is not None)
    report["ok"] = (
        report["identity"]
        and report["sums"]
        and report["rotations"]
        and all(report["fillers"])
    )
    return report


def lemma_nangle_check(cat, angle: NAngle, probes, window: int = 3) -> dict:
    """Composite vanishing, and long exactness of Hom(p, -) and Hom(-, p)
    along the angle over the shifts |i| <= window, for each probe p.

    The unrolled sequence ..., Sigma^i X_1 -> ... -> Sigma^i X_n ->
    Sigma^{i+1} X_1, ... is one complex of cat with k maps, in degrees
    0..k.  Hom(p, -) of it is the Hom complex of (p, seq) and Hom(-, p)
    that of (seq, p), so exactness at the inner terms is homology that
    vanishes away from the two ends.  Long exactness presumes a complex:
    when a composite does not vanish, both exactness flags are False.
    """
    composites = composites_vanish(angle)
    maps = [angle.sigma.mor(f, i) for i in range(-window, window + 1) for f in all_maps(angle)]
    k = len(maps)
    seq = Complex(cat, 0, [f.src for f in maps] + [maps[-1].tgt], maps, check=False)
    cov = composites and not any(nonzero_homology(stalk(cat, p), seq, (0, k)) for p in probes)
    contra = composites and not any(nonzero_homology(seq, stalk(cat, p), (-k, 0)) for p in probes)
    return {
        "composites": composites,
        "covariant_exact": cov,
        "contravariant_exact": contra,
        "ok": composites and cov and contra,
    }


# -- annihilators ----------------------------------------------------------


def lemma_ann_verify(cat, spec, a, b) -> dict:
    """Check the four annihilator characterizations for the pair (a, b).

    (1) with a right approximation f_a of a: R(a,b) = {g | f_a.then(g)=0};
    (2) with a left approximation f^b of b: L(a,b) = {g | g.then(f^b)=0};
    (3) if a is in the subcategory: R(a,b)=0 and L(a,b)=I(a,b);
    (4) if b is in the subcategory: L(a,b)=0 and R(a,b)=J(a,b).
    Clauses (3)/(4) are skipped when membership is not known structurally.
    """
    report = {}
    hom_ab = cat.hom(a, b).basis
    _, fa = right_approximation(cat, spec, a)
    r_direct = ideal_space(cat, spec, a, b, "R")
    (images,) = cat.composite_coords([fa], hom_ab)
    killed = kernel(Mat.from_columns(cat.field, images, cat.hom(fa.src, b).dim))
    report["right_char"] = r_direct == killed

    _, fb = left_approximation(cat, spec, b)
    l_direct = ideal_space(cat, spec, a, b, "L")
    images = [row[0] for row in cat.composite_coords(hom_ab, [fb])]
    killed = kernel(Mat.from_columns(cat.field, images, cat.hom(a, fb.tgt).dim))
    report["left_char"] = l_direct == killed

    if spec.contains(a):
        dim_r = len(r_direct.basis)
        report["member_source"] = dim_r == 0 and l_direct == ideal_space(
            cat, spec, a, b, "I"
        )
    else:
        report["member_source"] = None
    if spec.contains(b):
        dim_l = len(l_direct.basis)
        report["member_target"] = dim_l == 0 and r_direct == ideal_space(
            cat, spec, a, b, "J"
        )
    else:
        report["member_target"] = None
    report["ok"] = all(v is not False for v in report.values())
    return report


# -- orbit categories ------------------------------------------------------


def orbit_iso_to_power(ocat, x, i: int):
    """Mutually inverse homogeneous morphisms X -> F^i X and back.

    Needs both i and -i in the admissible set; the forward map is the
    identity placed in degree -i, the backward one the identity in degree i.
    """
    if i not in ocat.phi or -i not in ocat.phi:
        raise HypothesisError(f"degrees {i} and {-i} must both be admissible")
    fx = ocat.functor.obj(x, i)
    fwd = Mor(
        ocat,
        x,
        fx,
        {ocat.phi.norm(-i): ocat.base.identity(ocat.functor.obj(fx, -i))},
    )
    bwd = Mor(ocat, fx, x, {ocat.phi.norm(i): ocat.base.identity(fx)})
    if not equal(fwd.then(bwd), ocat.identity(x)) or not equal(bwd.then(fwd), ocat.identity(fx)):
        raise InternalConsistencyError("strict orbit isomorphism failed to invert")
    return fwd, bwd
