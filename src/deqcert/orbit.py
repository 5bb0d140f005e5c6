"""Orbit categories for strict automorphisms over an admissible degree set.

Hom spaces are graded, Hom(X, Y) = sum over i in Phi of Hom(X, F^i Y), with
composition (f * g)_i = sum over u + v = i of f_u . F^u(g_v).  Only strict
automorphisms are supported, so all coherence maps are identities.
"""

from __future__ import annotations

from .algebra import ModuleRep
from .angulate import NAngle, ShiftAuto, verify_theorem2
from .catideal import RingPresentation, SubcatSpec, approximation_witness, end_ring, ideal_space
from .category import FiniteCategory, Mor, StrictAuto
from .errors import InputError, InternalConsistencyError
from .exactla import Mat, Subspace, _normal

__all__ = [
    "AdmissibleSet",
    "admissibility_witness",
    "is_admissible",
    "ShiftAuto",
    "QuiverTwistAuto",
    "OrbitCategory",
    "yoneda_algebra",
    "ideals_IJ",
    "corollary_orbit_verify",
]


def admissibility_witness(s: set):
    """The first triple [i, j, k] of the set s, in its iteration order, with
    i+j+k in s and exactly one of i+j and j+k in s; None when there is none."""
    return next(
        (
            [i, j, k]
            for i in s
            for j in s
            for k in s
            if i + j + k in s and ((i + j in s) != (j + k in s))
        ),
        None,
    )


def is_admissible(s) -> bool:
    """0 in s, and i+j+k in s forces (i+j in s) iff (j+k in s)."""
    s = set(s)
    return 0 in s and admissibility_witness(s) is None


class AdmissibleSet:
    """A finite admissible window of degrees.

    With ``period`` set, the set represents all of the integers (which is
    admissible) realized as residues modulo the period; this is exact when
    the orbit functor has that finite order, since F^period = id on the
    nose makes the graded pieces literally periodic.  No finite set can
    contain a nonzero degree together with its negative — the triple
    (-i, i, i) forces 2i in, then 3i, and so on — so symmetric windows are
    only available through a period.
    """

    def __init__(self, degrees, period: int | None = None):
        self.period = int(period) if period else None
        if self.period:
            if self.period < 1:
                raise InputError("period must be positive")
            self.degrees = tuple(range(self.period))
            return
        self.degrees = tuple(sorted(set(int(d) for d in degrees)))
        if not is_admissible(self.degrees):
            raise InputError(f"degree set {self.degrees} is not admissible")

    def norm(self, d: int) -> int:
        return d % self.period if self.period else d

    def __contains__(self, d):
        return self.norm(d) in self.degrees

    def __iter__(self):
        return iter(self.degrees)

    def __len__(self):
        return len(self.degrees)

    def __repr__(self):
        return f"AdmissibleSet({list(self.degrees)})"


class QuiverTwistAuto(StrictAuto):
    """Twist of quiver representations along a quiver automorphism.

    vertex_map / arrow_map describe the automorphism sigma; the twist
    relabels slot v of F(M) as slot sigma^{-1}(v) of M.  The relation set
    must be sigma-stable (validated on first application).
    """

    def __init__(self, algebra, vertex_map: dict, arrow_map: dict, order: int):
        super().__init__()
        self.algebra = algebra
        self.base = algebra.modcat
        quiver = algebra.presentation.quiver
        if set(vertex_map) != set(quiver.vertices) or set(vertex_map.values()) != set(
            quiver.vertices
        ):
            raise InputError("vertex map is not a permutation of the vertices")
        arrow_names = {a[0] for a in quiver.arrows}
        if set(arrow_map) != arrow_names or set(arrow_map.values()) != arrow_names:
            raise InputError("arrow map is not a permutation of the arrows")
        for name, s, t in quiver.arrows:
            _, s2, t2 = quiver.arrow_by_name[arrow_map[name]]
            if s2 != vertex_map[s] or t2 != vertex_map[t]:
                raise InputError(f"arrow map breaks incidence at {name}")
        self.vertex_map = dict(vertex_map)
        self.arrow_map = dict(arrow_map)
        self.order = int(order)
        if self.order < 1:
            raise InputError(f"order {order!r} is not positive")
        self._v_pows = self._perm_powers(self.vertex_map)
        self._a_pows = self._perm_powers(self.arrow_map)

    def _perm_powers(self, perm):
        pows = [dict((k, k) for k in perm)]
        for _ in range(1, self.order):
            pows.append({k: perm[v] for k, v in pows[-1].items()})
        probe = {k: perm[v] for k, v in pows[-1].items()}
        if any(probe[k] != k for k in probe):
            raise InputError("stated order is not the order of the permutation")
        return pows

    def _power(self, m: ModuleRep, k: int) -> ModuleRep:
        vinv = self._v_pows[-k % self.order]
        ainv = self._a_pows[-k % self.order]
        vfwd = self._v_pows[k]
        dims = {v: m.dims[vinv[v]] for v in m.slots}
        mats = {a: m.mats[ainv[a]] for a in m.mats}
        proj = (
            tuple(vfwd[p] for p in m.proj_summands) if m.proj_summands is not None else None
        )
        return ModuleRep(m.algebra, dims, mats, name=f"F^{k}({m.name})", proj_summands=proj)

    def mor(self, f: Mor, k: int = 1) -> Mor:
        src = self.obj(f.src, k)
        tgt = self.obj(f.tgt, k)
        vfwd = self._v_pows[k % self.order]
        return Mor(self.base, src, tgt, {vfwd[s]: blk for s, blk in f.payload.items()})


class OrbitCategory(FiniteCategory):
    """Same objects as the base; graded Hom spaces over an admissible set."""

    def __init__(self, base: FiniteCategory, functor: StrictAuto, phi: AdmissibleSet):
        super().__init__(base.field)
        self.base = base
        self.functor = functor
        self.phi = phi if isinstance(phi, AdmissibleSet) else AdmissibleSet(phi)
        if self.phi.period and functor.order != self.phi.period:
            raise InputError("periodic degree set needs a functor of matching order")
        self._graded = {}  # (x key, y key) -> [(u, base Hom(x, F^u y))]

    def _graded_spaces(self, x, y):
        key = (x.key, y.key)
        if key not in self._graded:
            self._graded[key] = [(u, self.base.hom(x, self.functor.obj(y, u))) for u in self.phi]
        return self._graded[key]

    def _hom_space(self, x, y):
        payloads = [{u: b} for u, space in self._graded_spaces(x, y) for b in space.basis]
        return payloads, Mat.identity(self.field, len(payloads))

    def _p_flatten(self, x, y, fp):
        out, pos = {}, 0
        for u, space in self._graded_spaces(x, y):
            if u in fp:
                out.update((pos + j, c) for j, c in space.coords(fp[u].payload).items())
            pos += space.dim
        return out

    def _p_compose(self, x, y, z, fp, gp):
        out = {}
        for u, f in fp.items():
            for v, g in gp.items():
                w = self.phi.norm(u + v)
                if w not in self.phi.degrees:
                    continue  # grading truncation
                term = f.then(self.functor.mor(g, u))
                if term.payload:
                    out[w] = out[w] + term if w in out else term
        return out

    def _coords_table(self, x, y, z, fps, gps):
        # f_u against F^u(g_v) is one base table per pair (u, v), summed into
        # the block of w = norm(u + v); each g is twisted once per u
        starts, at = {}, 0
        for w, space in self._graded_spaces(x, z):
            starts[w], at = at, at + space.dim
        flats = [[{} for _ in gps] for _ in fps]
        for u in dict.fromkeys(u for fp in fps for u in fp):
            fs = [a for a, fp in enumerate(fps) if u in fp]
            fus = [fps[a][u].payload for a in fs]
            twisted = {}  # v -> [(b, F^u(g_v))], within the grading truncation
            for b, gp in enumerate(gps):
                for v, g in gp.items():
                    if self.phi.norm(u + v) in starts:
                        twisted.setdefault(v, []).append((b, self.functor.mor(g, u)))
            for v, gs in twisted.items():
                start, yu, zw = starts[self.phi.norm(u + v)], fps[fs[0]][u].tgt, gs[0][1].tgt
                sub = self.base._coords_table(x, yu, zw, fus, [g.payload for _, g in gs])
                for a, row in zip(fs, sub):
                    for (b, _), vec in zip(gs, row):
                        out = flats[a][b]
                        for j, c in vec.items():
                            out[start + j] = out[start + j] + c if start + j in out else c
        space, p = self.hom(x, z), self.field.char
        return [[space.flat_coords(_normal(p, vec)) if vec else {} for vec in row] for row in flats]

    def _p_identity(self, x):
        return {0: self.base.identity(x)}

    def _direct_sum(self, objs):
        data = self.base.direct_sum(objs)
        return data.obj, [{0: m} for m in data.injections], [{0: m} for m in data.projections]

    def degree_zero_block(self, x, y):
        """Index range of the degree-0 coordinates inside Hom(x, y)."""
        start = 0
        for u, space in self._graded_spaces(x, y):
            if u == 0:
                return start, start + space.dim
            start += space.dim
        raise InternalConsistencyError("0 must lie in the admissible set")

    def from_degree_zero(self, x, y, f: Mor) -> Mor:
        """View a base morphism x -> y as a degree-0 orbit morphism."""
        return Mor(self, x, y, {0: f} if not f.is_zero() else {})


def yoneda_algebra(base: FiniteCategory, x, functor: StrictAuto, phi) -> RingPresentation:
    """End of x in the orbit category, as a structure-constant presentation."""
    ocat = OrbitCategory(base, functor, phi)
    return end_ring(ocat, x)


# -- the ideals I and J ----------------------------------------------------


def _embed_degree_zero(ocat, x, sub: Subspace) -> Subspace:
    """Degree-0 subspace (in base Hom coordinates) as a graded subspace."""
    lo, _ = ocat.degree_zero_block(x, x)
    vecs = [{lo + j: c for j, c in v.items()} for v in sub.basis]
    return Subspace.from_vectors(ocat.field, ocat.hom(x, x).dim, vecs)


def ideals_IJ(
    ocat: OrbitCategory,
    sigma: StrictAuto,
    angle: NAngle,
    m,
) -> dict:
    """The ideals I and J of the graded endomorphism rings, with the
    identification against the proper annihilators computed in the orbit
    category.

    angle: X -> M_1 -> ... -> M_{n-2} -> Y -> Sigma X in the *base*
    category; its maps are viewed in degree 0.  Hypotheses: the first map a
    left add(m)-approximation and the last interior map a right one in the
    orbit category, plus Hom(Y, F^i m) = 0 and Hom(m, F^i X) = 0 for all
    nonzero admissible i.
    """
    base = ocat.base
    functor = ocat.functor
    x_obj = angle.objects[0]
    y_obj = angle.objects[-1]
    w = angle.connecting
    report = {}

    spec = SubcatSpec(ocat, [m])
    f0 = ocat.from_degree_zero(x_obj, angle.objects[1], angle.maps[0])
    g = ocat.from_degree_zero(angle.objects[-2], y_obj, angle.maps[-1])
    left_wit = approximation_witness(ocat, spec, f0, "left")
    right_wit = approximation_witness(ocat, spec, g, "right")
    left_ok, right_ok = left_wit is None, right_wit is None
    report["left_approximation"] = left_ok
    report["right_approximation"] = right_ok
    van_j = all(
        base.hom(y_obj, functor.obj(m, i)).dim == 0 for i in ocat.phi if i != 0
    )
    van_i = all(
        base.hom(m, functor.obj(x_obj, i)).dim == 0 for i in ocat.phi if i != 0
    )
    report["vanishing_Y_to_FM"] = van_j
    report["vanishing_M_to_FX"] = van_i
    hypotheses_ok = left_ok and right_ok and van_j and van_i
    report["hypotheses_ok"] = hypotheses_ok
    if not hypotheses_ok:
        report["witness"] = left_wit or right_wit
        report["I"] = report["J"] = None
        report["I_equal"] = report["J_equal"] = None
        return report

    xm = ocat.direct_sum([x_obj, m])
    ym = ocat.direct_sum([y_obj, m])

    # w-tilde: Y -> Sigma(X + M), components (w, 0); w-bar: Y + M -> Sigma X
    base_xm = base.direct_sum([x_obj, m])
    base_ym = base.direct_sum([y_obj, m])
    w_tilde = w.then(sigma.mor(base_xm.injections[0]))
    w_bar = base_ym.projections[0].then(w)
    w_tilde_desh = sigma.mor(w_tilde, -1)  # Sigma^{-1} Y -> X + M

    field = ocat.field

    # J: degree-0 endomorphisms of Y+M factoring through add(m) and through w-bar
    end_ym_base = base.hom(base_ym.obj, base_ym.obj)
    (via_w_bar,) = base.composite_coords([w_bar], base.hom(sigma.obj(x_obj), base_ym.obj).basis)
    j_factor = Subspace.from_vectors(field, end_ym_base.dim, via_w_bar)
    f_ideal_ym = ideal_space(ocat, spec, ym.obj, ym.obj, "F")
    f_deg0_ym = _degree_zero_part(ocat, ym.obj, f_ideal_ym)
    j_deg0 = j_factor.intersect(f_deg0_ym)
    j_sub = _embed_degree_zero(ocat, ym.obj, j_deg0)

    # I: degree-0 endomorphisms of X+M factoring through add(m) and
    # through Sigma^{-1}(w-tilde)
    end_xm_base = base.hom(base_xm.obj, base_xm.obj)
    to_shift = base.hom(base_xm.obj, sigma.obj(y_obj, -1)).basis
    via_w_tilde = base.composite_coords(to_shift, [w_tilde_desh])
    i_factor = Subspace.from_vectors(field, end_xm_base.dim, [row[0] for row in via_w_tilde])
    f_ideal_xm = ideal_space(ocat, spec, xm.obj, xm.obj, "F")
    f_deg0_xm = _degree_zero_part(ocat, xm.obj, f_ideal_xm)
    i_deg0 = i_factor.intersect(f_deg0_xm)
    i_sub = _embed_degree_zero(ocat, xm.obj, i_deg0)

    j_proper = ideal_space(ocat, spec, ym.obj, ym.obj, "J")
    i_proper = ideal_space(ocat, spec, xm.obj, xm.obj, "I")
    report["I"] = i_sub
    report["J"] = j_sub
    report["I_proper"] = i_proper
    report["J_proper"] = j_proper
    report["I_equal"] = i_sub == i_proper
    report["J_equal"] = j_sub == j_proper
    return report


def _degree_zero_part(ocat, x, sub: Subspace) -> Subspace:
    """Elements of the graded subspace sub supported in degree 0, in base
    Hom coordinates: sub meets the coordinate subspace of the degree-0 block."""
    field = ocat.field
    lo, hi = ocat.degree_zero_block(x, x)
    block = Subspace(field, sub.ambient, [{j: field.one} for j in range(lo, hi)])
    basis = [{j - lo: c for j, c in v.items()} for v in sub.intersect(block).basis]
    return Subspace(field, hi - lo, basis)


class OrbitShift(StrictAuto):
    """Sigma acting degreewise on an orbit category (strict case).  Its
    objects are those of the base shift, read from the base shift's cache."""

    def __init__(self, ocat: OrbitCategory, base_sigma: StrictAuto):
        self.ocat = ocat
        self.base_sigma = base_sigma
        # strict commutation of Sigma with the orbit functor is required
        # for the degreewise action to be well-typed; spot-checked lazily

    def obj(self, x, k: int = 1):
        return self.base_sigma.obj(x, k)

    def mor(self, f: Mor, k: int = 1) -> Mor:
        ocat = self.ocat
        src = self.obj(f.src, k)
        tgt = self.obj(f.tgt, k)
        payload = {}
        for u, comp in f.payload.items():
            shifted = self.base_sigma.mor(comp, k)
            expected = ocat.functor.obj(tgt, u)
            if shifted.tgt.key != expected.key:
                raise InternalConsistencyError(
                    "shift and orbit functor do not commute strictly"
                )
            payload[u] = shifted
        return Mor(ocat, src, tgt, payload)


def corollary_orbit_verify(
    ocat: OrbitCategory, base_sigma: StrictAuto, angle: NAngle, m
):
    """Run the angle-based equivalence engine inside the orbit category."""
    sigma = OrbitShift(ocat, base_sigma)
    objs = list(angle.objects)
    maps = [
        ocat.from_degree_zero(a, b, f)
        for a, b, f in zip(objs, objs[1:], angle.maps)
    ]
    connecting = ocat.from_degree_zero(
        objs[-1], sigma.obj(objs[0]), angle.connecting
    )
    orbit_angle = NAngle(sigma, objs, maps, connecting)
    return verify_theorem2(ocat, sigma, orbit_angle, m)
