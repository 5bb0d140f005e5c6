"""Weakly n-angulated categories: the bounded homotopy category of
projectives as the built-in triangulated (n = 3) instance, its cone
triangles, and the angle-based equivalence engine.

An n-angle is a sequence X_1 -> X_2 -> ... -> X_n -> Sigma X_1.  The
checkers of the weak axioms and of long exactness along an angle are test
oracles (tests/oracles.py); a verdict does not run them.
"""

from __future__ import annotations

from .algebra import ModuleRep
from .catideal import SubcatSpec, approximation_witness, ideal_space
from .category import MorphismEquations, Mor, QuotientCategory, StrictAuto
from .complexes import Complex, HomotopyCategory, stalk
from .derivedeq import EquivCertificate, _certify, _check_middle_terms, augment
from .errors import HypothesisError, InputError, InternalConsistencyError
from .exactla import kernel

__all__ = [
    "NAngle",
    "KbProjCat",
    "ShiftAuto",
    "cone_triangle",
    "verify_theorem2",
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


class ShiftAuto(StrictAuto):
    """The shift Sigma of a KbProjCat.  Its power cache lives on the
    category, so every ShiftAuto of one category returns the same objects.
    It holds only that cache: a shifted map lives where the map it shifts
    does, so the category owns its shift and is not held back by it."""

    def __init__(self, cat: "KbProjCat"):
        super().__init__(cat._shift_cache)

    def _power(self, x: Complex, k: int) -> Complex:
        return x.shift(k)

    def mor(self, f: Mor, k: int = 1) -> Mor:
        src, tgt = self.obj(f.src, k), self.obj(f.tgt, k)
        # (Sigma^k f)^i = f^{i+k}
        return Mor(f.cat, src, tgt, {i - k: m for i, m in f.payload.items()})


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

    def _direct_sum(self, objs):
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
            injections.append(inj)
            projections.append(proj)
        return total, injections, projections


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


# -- the angle-based equivalence engine ------------------------------------


def verify_theorem2(cat, sigma: StrictAuto, angle: NAngle, m) -> EquivCertificate:
    """Equivalence certificate from an n-angle with middle terms in add(m).

    angle: X -> M_1 -> ... -> M_{n-2} -> Y -> Sigma X.  The first map must
    be a left add(m)-approximation and the last interior map a right one.
    """
    x_obj = angle.objects[0]
    spec = SubcatSpec(cat, [m])
    witness = approximation_witness(cat, spec, angle.maps[0], "left")
    if witness is not None:
        raise HypothesisError("the first map is not a left approximation", witness=witness)
    witness = approximation_witness(cat, spec, angle.maps[-1], "right")
    if witness is not None:
        raise HypothesisError("the last interior map is not a right approximation", witness=witness)
    _check_middle_terms(spec, list(enumerate(angle.objects))[1:-1])

    # augmented angle: ... -> M_{n-2}+M --diag(g,1)--> Y+M --(w,0)--> Sigma X
    _, t_complex, ym_sum, g_tilde = augment(cat, m, angle.objects, angle.maps)
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
