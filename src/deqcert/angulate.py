"""Weakly n-angulated categories: the bounded homotopy category of
projectives as the built-in triangulated (n = 3) instance, axiom and
long-exactness checkers, and the angle-based equivalence engine.

An n-angle is a sequence X_1 -> X_2 -> ... -> X_n -> Sigma X_1.  The
rotation of an angle carries the sign (-1)^n on the wrapped-around map.
"""

from __future__ import annotations

from .algebra import ModuleRep, kernel_module, projective
from .catideal import SubcatSpec, approximation_witness, ideal_space, minimal_right_approximation
from .category import DirectSumData, MorphismEquations, Mor, QuotientCategory, StrictAuto
from .complexes import Complex, HomotopyCategory, stalk
from .derivedeq import EquivCertificate, _certify, augment
from .errors import HypothesisError, InputError, InternalConsistencyError
from .exactla import Mat, kernel

__all__ = [
    "NAngle",
    "KbProjCat",
    "ShiftAuto",
    "cone_triangle",
    "identity_angle",
    "rotate_angle",
    "sum_angles",
    "verify_weak_axioms",
    "lemma_nangle_check",
    "verify_theorem2",
    "proj_resolution_complex",
]


class NAngle:
    """objects X_1..X_n, maps f_1..f_{n-1} between them, and the connecting
    map f_n: X_n -> Sigma(X_1)."""

    def __init__(self, sigma: StrictAuto, objects, maps, connecting: Mor):
        self.sigma = sigma
        self.objects = list(objects)
        self.n = len(self.objects)
        if self.n < 3:
            raise InputError("an n-angle needs n >= 3 objects")
        self.maps = list(maps)
        if len(self.maps) != self.n - 1:
            raise InputError("need n-1 interior maps")
        self.connecting = connecting
        if connecting.tgt.key != sigma.obj(self.objects[0]).key:
            raise InputError("connecting map must land in the shift of the first object")

    def all_maps(self):
        return self.maps + [self.connecting]

    def consecutive_composites_vanish(self) -> bool:
        seq = self.all_maps()
        for a, b in zip(seq, seq[1:]):
            if not a.then(b).is_zero():
                return False
        # wrap around: f_n then Sigma(f_1)
        return seq[-1].then(self.sigma.mor(self.maps[0])).is_zero()


class ShiftAuto(StrictAuto):
    """The shift Sigma of a KbProjCat.  Its power cache lives on the
    category, so every ShiftAuto of one category returns the same objects."""

    def __init__(self, cat: "KbProjCat"):
        super().__init__(cat._shift_cache)
        self.cat = cat

    def _power(self, x: Complex, k: int) -> Complex:
        return x.shift(k)

    def mor(self, f: Mor, k: int = 1) -> Mor:
        src, tgt = self.obj(f.src, k), self.obj(f.tgt, k)
        # (Sigma^k f)^i = f^{i+k}
        return Mor(self.cat, src, tgt, {i - k: m for i, m in f.payload.items()})


class KbProjCat(HomotopyCategory):
    """Bounded complexes of certified projectives up to homotopy: the
    homotopy category of the module category, with the strict shift."""

    def __init__(self, algebra):
        super().__init__(algebra.modcat)
        self.algebra = algebra
        self._shift_cache = {}
        self.sigma = ShiftAuto(self)

    def object(self, cx: Complex) -> Complex:
        for o in cx.objs:
            if o.total_dim and o.proj_summands is None:
                raise InputError("complex has a non-certified-projective term")
        return cx

    def stalk_obj(self, module: ModuleRep) -> Complex:
        return self.object(stalk(self.base, module))

    def _direct_sum(self, objs) -> DirectSumData:
        lo = min(o.lo for o in objs)
        hi = max(o.hi for o in objs)
        base = self.base
        zero_mod = ModuleRep.zero(self.algebra)

        def term(o, i):
            t = o.obj(i)
            return t if t is not None else zero_mod

        sums = [base.direct_sum([term(o, i) for o in objs]) for i in range(lo, hi + 1)]
        diffs = []
        for i in range(lo, hi):
            # o.diff(i) on the diagonal; the other blocks are zero maps,
            # which mor_from_blocks skips as None
            blocks = [[None] * len(objs) for _ in objs]
            for a, o in enumerate(objs):
                blocks[a][a] = o.diff(i)
            diffs.append(base.mor_from_blocks(sums[i - lo], sums[i + 1 - lo], blocks))
        total = Complex(base, lo, [s.obj for s in sums], diffs, check=False)
        injections, projections = [], []
        for a, o in enumerate(objs):
            inj = {}
            proj = {}
            for i in o.degrees():
                s = sums[i - lo]
                inj[i] = s.injections[a]
                proj[i] = s.projections[a]
            injections.append(Mor(self, o, total, inj))
            projections.append(Mor(self, total, o, proj))
        return DirectSumData(total, list(objs), injections, projections)


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
        return _zero_object(cat)

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


# -- angle constructions ---------------------------------------------------


def cone_triangle(cat: KbProjCat, f: Mor) -> NAngle:
    """X -> Y -> Cone(f) -> Sigma X with the standard cone differential."""
    base = cat.base
    x, y = f.src, f.tgt
    sx = cat.sigma.obj(x)
    lo = min(sx.lo, y.lo)
    hi = max(sx.hi, y.hi)
    zero_mod = ModuleRep.zero(cat.algebra)

    def part(cx, i):
        t = cx.obj(i)
        return t if t is not None else zero_mod

    sums = [base.direct_sum([part(sx, i), part(y, i)]) for i in range(lo, hi + 1)]
    diffs = []
    for i in range(lo, hi):
        # blocks: sx-part maps by the (already negated) shifted differential,
        # plus the off-diagonal chain-map component f^{i+1}: x^{i+1} -> y^{i+1};
        # a zero block is None, which mor_from_blocks skips
        blocks = [[sx.diff(i), f.payload.get(i + 1)], [None, y.diff(i)]]
        diffs.append(base.mor_from_blocks(sums[i - lo], sums[i + 1 - lo], blocks))
    cone = Complex(base, lo, [s.obj for s in sums], diffs)
    incl = Mor(cat, y, cone, {i: sums[i - lo].injections[1] for i in y.degrees()})
    proj = Mor(
        cat,
        cone,
        sx,
        {i: sums[i - lo].projections[0] for i in cone.degrees() if sx.obj(i) is not None},
    )
    return NAngle(cat.sigma, [x, y, cone], [f, incl], proj)


def identity_angle(cat, sigma: StrictAuto, x) -> NAngle:
    zero = _zero_object(cat)
    return NAngle(
        sigma,
        [x, x, zero],
        [cat.identity(x), cat.zero_mor(x, zero)],
        cat.zero_mor(zero, sigma.obj(x)),
    )


def _zero_object(cat):
    if isinstance(cat, KbProjCat):
        return cat.object(Complex(cat.base, 0, [ModuleRep.zero(cat.algebra)], [], check=False))
    raise InputError("no canonical zero object for this category")


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


def _match_shift_of_sum(cat, sigma, sum_data, shift_sum: DirectSumData) -> Mor:
    """Canonical map (Sigma a) + (Sigma b) -> Sigma(a + b)."""
    target = sigma.obj(sum_data.obj)
    out = cat.zero_mor(shift_sum.obj, target)
    for proj, inj in zip(shift_sum.projections, sum_data.injections):
        out = out + proj.then(sigma.mor(inj))
    return out


# -- checkers --------------------------------------------------------------


def _fill_angle_square(cat, sigma, src: NAngle, tgt: NAngle, h1: Mor, h2: Mor):
    """Solve for h3..hn completing a morphism of angles; None if unsolvable.

    Requires h1.then(tgt.maps[0]) == src.maps[0].then(h2).
    """
    n = src.n
    if not h1.then(tgt.maps[0]).eq(src.maps[0].then(h2)):
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
        if not ida.consecutive_composites_vanish():
            report["identity"] = False
        rot = rotate_angle(cat, ang)
        if not rot.consecutive_composites_vanish():
            report["rotations"] = False
    for a in angles:
        for b in angles:
            s = sum_angles(cat, a, b)
            if not s.consecutive_composites_vanish():
                report["sums"] = False
    # axiom (3): commuting squares extend
    for src in angles:
        for tgt in angles:
            (x1, x2), (y1, y2) = src.objects[:2], tgt.objects[:2]
            square = (cat.hom(x1, y2), [(1, src.maps[0], "pre"), (0, -tgt.maps[0], "post")])
            squares = MorphismEquations(cat, [cat.hom(x1, y1), cat.hom(x2, y2)], [square])
            for h1, h2 in squares.kernel():
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
    """Composite vanishing, Hom long-exactness over a shift window, fillers."""
    report = {"composites": angle.consecutive_composites_vanish()}
    sigma = angle.sigma

    def shifted_cycle():
        """Maps of the unrolled sequence ..., Sigma^i X_1 -> ... -> Sigma^i X_n -> Sigma^{i+1} X_1, ..."""
        out = []
        for i in range(-window, window + 1):
            for f in angle.all_maps():
                out.append(sigma.mor(f, i))
        return out

    seq = shifted_cycle()
    cov_exact, contra_exact = True, True
    for p in probes:
        # covariant: Hom(p, -)
        mats = [_hom_action(cat, p, f, side="cov") for f in seq]
        for a, b in zip(mats, mats[1:]):
            if not _exact_pair(a, b):
                cov_exact = False
        mats = [_hom_action(cat, p, f, side="contra") for f in seq]
        rev = list(reversed(mats))
        for a, b in zip(rev, rev[1:]):
            if not _exact_pair(a, b):
                contra_exact = False
    report["covariant_exact"] = cov_exact
    report["contravariant_exact"] = contra_exact
    report["ok"] = report["composites"] and cov_exact and contra_exact
    return report


def _hom_action(cat, p, f: Mor, side: str) -> Mat:
    """Matrix of Hom(p, f) (cov) or Hom(f, p) (contra) on Hom bases."""
    if side == "cov":
        src_space = cat.hom(p, f.src)
        tgt_space = cat.hom(p, f.tgt)
        cols = [row[0] for row in cat.composite_coords(src_space.basis, [f])]
    else:
        src_space = cat.hom(f.tgt, p)
        tgt_space = cat.hom(f.src, p)
        (cols,) = cat.composite_coords([f], src_space.basis)
    return Mat.from_columns(cat.field, cols, tgt_space.dim)


def _exact_pair(a: Mat, b: Mat) -> bool:
    """Exactness of -> (a) -> middle -> (b) -> : ker b = im a."""
    if b.cols != a.rows:
        raise InternalConsistencyError("non-composable exactness pair")
    ker_dim = b.cols - b.rank()
    if ker_dim != a.rank():
        return False
    # im a is contained in ker b automatically only if b.a = 0; verify
    return (b * a).is_zero()


# -- the angle-based equivalence engine ------------------------------------


def verify_theorem2(cat, sigma: StrictAuto, angle: NAngle, m) -> EquivCertificate:
    """Equivalence certificate from an n-angle with middle terms in add(m).

    angle: X -> M_1 -> ... -> M_{n-2} -> Y -> Sigma X.  The first map must
    be a left add(m)-approximation and the last interior map a right one.
    """
    x_obj = angle.objects[0]
    spec = SubcatSpec(cat, [m])
    for mid in angle.objects[1:-1]:
        spec.member(mid)
    witness = approximation_witness(cat, spec, angle.maps[0], "left")
    if witness is not None:
        raise HypothesisError("the first map is not a left approximation", witness=witness)
    witness = approximation_witness(cat, spec, angle.maps[-1], "right")
    if witness is not None:
        raise HypothesisError("the last interior map is not a right approximation", witness=witness)

    # augmented angle: ... -> M_{n-2}+M --diag(g,1)--> Y+M --(w,0)--> Sigma X
    _, t_complex, ym_sum, g_tilde = augment(cat, spec, m, angle.objects, angle.maps)
    ym = ym_sum.obj
    eta_tilde = ym_sum.projections[0].then(angle.connecting)
    qcat_i = QuotientCategory(cat, lambda a, b: ideal_space(cat, spec, a, b, "I"))
    qcat_j = QuotientCategory(cat, lambda a, b: ideal_space(cat, spec, a, b, "J"))

    # theta: joint solve  g~ . u = f_top . g~  and  u . eta~ = eta~ . Sigma(f0)
    eqs = MorphismEquations(
        cat,
        [cat.hom(ym, ym)],
        [
            (cat.hom(g_tilde.src, ym), [(0, g_tilde, "pre")]),
            (cat.hom(ym, sigma.obj(x_obj)), [(0, eta_tilde, "post")]),
        ],
    )
    # well-definedness: the homogeneous solutions must lie in the proper ideal
    j_ideal = qcat_j.ideal(ym, ym)
    hom_solutions = kernel(eqs.matrix)

    def theta_of(f: dict):
        f_top = f.get(t_complex.hi) or cat.zero_mor(g_tilde.src, g_tilde.src)
        f_zero = f.get(0) or cat.zero_mor(x_obj, x_obj)
        sol = eqs.solve([f_top.then(g_tilde), eta_tilde.then(sigma.mor(f_zero))])
        if sol is None:
            raise InternalConsistencyError("angle filler system unsolvable")
        return qcat_j.lift(sol[0])

    mx = cat.direct_sum([m, x_obj]).obj
    cert = _certify(t_complex, qcat_i, qcat_j, ym, mx, theta_of)
    cert.flags = {"theta_well_defined": j_ideal.contains_subspace(hom_solutions), **cert.flags}
    return cert
