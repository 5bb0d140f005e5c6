"""Bounded complexes over a FiniteCategory, Hom-total complexes, the
categories of chain maps and of homotopy classes they form, and the
homology conditions used by the equivalence constructions.

Cochain conventions: differentials raise degree, ``d^i: X^i -> X^{i+1}``,
and ``d^i.then(d^{i+1})`` vanishes.  For the Hom-total complex of (x, y),
the degree-n term is the sum of Hom(x^m, y^{m+n}) over m, and

    (df)^m = f^m . d_y^{m+n}  -  (-1)^n  d_x^m . f^{m+1}

(left-to-right composition).  With this sign, degree-0 cycles are chain
maps and degree-0 boundaries are the null-homotopic ones.  The shift x[1]
moves x^{i+1} into degree i and negates the differentials.
"""

from __future__ import annotations

from .category import FiniteCategory, QuotientCategory, fresh_key
from .errors import InputError
from .exactla import Mat, Subspace

__all__ = [
    "Complex",
    "stalk",
    "HomComplex",
    "homology_dims",
    "nonzero_homology",
    "ChainMapCategory",
    "HomotopyCategory",
    "check_thm1_conditions",
    "complex_in_quotient",
]


class Complex:
    """A bounded complex: objects at degrees lo..hi, differentials between."""

    def __init__(self, cat: FiniteCategory, lo: int, objs, diffs, check=True):
        self.cat = cat
        self.lo = int(lo)
        self.objs = list(objs)
        self.hi = self.lo + len(self.objs) - 1
        self.diffs = {}
        for i, d in enumerate(diffs):
            deg = self.lo + i
            if d is None:
                d = cat.zero_mor(self.objs[i], self.objs[i + 1])
            self.diffs[deg] = d
        if len(self.objs) >= 1 and len(self.diffs) != len(self.objs) - 1:
            raise InputError("need exactly one differential per consecutive pair")
        self.key = fresh_key()
        if check:
            self.validate()

    def validate(self):
        for deg, d in self.diffs.items():
            if d.src.key != self.objs[deg - self.lo].key or d.tgt.key != self.objs[
                deg - self.lo + 1
            ].key:
                raise InputError(f"differential at degree {deg} has wrong endpoints")
            nxt = self.diffs.get(deg + 1)
            if nxt is not None and not d.then(nxt).is_zero():
                raise InputError(f"d.d != 0 at degree {deg}")

    def obj(self, i):
        if self.lo <= i <= self.hi:
            return self.objs[i - self.lo]
        return None

    def diff(self, i):
        return self.diffs.get(i)

    def degrees(self):
        return range(self.lo, self.hi + 1)

    def shift(self, k: int) -> "Complex":
        """x[k]: degree i holds x^{i+k}; differentials pick up (-1)^k."""
        sign = self.cat.field.one if k % 2 == 0 else self.cat.field.neg(
            self.cat.field.one
        )
        diffs = [
            self.diffs[self.lo + i].scale(sign) for i in range(len(self.objs) - 1)
        ]
        return Complex(self.cat, self.lo - k, list(self.objs), diffs, check=False)

    def __repr__(self):
        return f"Complex([{self.lo}, {self.hi}])"


def stalk(cat: FiniteCategory, obj, degree: int = 0) -> Complex:
    return Complex(cat, degree, [obj], [], check=False)


class HomComplex:
    """The Hom-total complex of a pair of complexes, with block structure.

    Degree-n vectors are concatenations of Hom(x^m, y^{m+n}) coordinates,
    blocks ordered by increasing m, as {index: nonzero} dicts.
    """

    def __init__(self, cat: FiniteCategory, x: Complex, y: Complex):
        if x.cat is not cat or y.cat is not cat:
            raise InputError("complexes live in a different category")
        self.cat = cat
        self.x = x
        self.y = y
        self.lo = y.lo - x.hi
        self.hi = y.hi - x.lo
        self._blocks = {}  # degree -> its blocks, built on demand
        self._diffs = {}  # degree -> differential leaving it, built on demand

    def block(self, n):
        """[(m, Hom(x^m, y^{m+n}))] over the m that degree n meets."""
        if n not in self._blocks:
            x, y = self.x, self.y
            ms = range(max(x.lo, y.lo - n), min(x.hi, y.hi - n) + 1)
            self._blocks[n] = [(m, self.cat.hom(x.obj(m), y.obj(m + n))) for m in ms]
        return self._blocks[n]

    def dim(self, n):
        return sum(h.dim for (_, h) in self.block(n))

    def diff(self, n) -> Mat:
        """The differential leaving degree n (zero-shaped when absent), built
        the first time it is asked for.  Its composites with the built
        differentials next to it must vanish."""
        d = self._diffs.get(n)
        if d is not None:
            return d
        if not self.lo <= n < self.hi:
            return Mat.zeros(self.cat.field, self.dim(n + 1), self.dim(n))
        d = self._diff_matrix(n)
        before, after = self._diffs.get(n - 1), self._diffs.get(n + 1)
        if (before is not None and not (d * before).is_zero()) or (
            after is not None and not (after * d).is_zero()
        ):
            raise InputError("consecutive matrices do not compose to zero")
        self._diffs[n] = d
        return d

    def maps_from_vec(self, n, vec) -> dict:
        """Coordinate vector of degree n -> {m: Mor(x^m, y^{m+n})}."""
        out, pos = {}, 0
        for m, h in self.block(n):
            out[m] = h.from_coords({j - pos: c for j, c in vec.items() if pos <= j < pos + h.dim})
            pos += h.dim
        return out

    def vec_from_maps(self, n, maps) -> dict:
        """{m: Mor} -> coordinate vector of degree n (absent maps are zero)."""
        out, pos = {}, 0
        for m, h in self.block(n):
            if m in maps:
                out.update((pos + j, c) for j, c in h.coords(maps[m].payload).items())
            pos += h.dim
        return out

    def _diff_matrix(self, n) -> Mat:
        """(df)^m = f^m.d_y - (-1)^n d_x.f^{m+1}: a basis map f of block m
        goes to f.d_y in block m and to -(-1)^n d_x.f in block m - 1 of
        degree n + 1, each block read off one composite table."""
        field, cat = self.cat.field, self.cat
        sign = field.neg(field.one) if n % 2 == 0 else field.one
        offsets, pos = {}, 0
        for m, h in self.block(n + 1):
            offsets[m] = pos
            pos += h.dim
        rows = [{} for _ in range(pos)]
        col = 0
        for m, h in self.block(n):
            dy, dx = self.y.diff(m + n), self.x.diff(m - 1)
            if m in offsets and dy is not None:
                for k, (vec,) in enumerate(cat.composite_coords(h.basis, [dy])):
                    for r, x in vec.items():
                        rows[offsets[m] + r][col + k] = x
            if m - 1 in offsets and dx is not None:
                (images,) = cat.composite_coords([dx], h.basis)
                for k, vec in enumerate(images):
                    for r, x in vec.items():
                        rows[offsets[m - 1] + r][col + k] = field.mul(sign, x)
            col += h.dim
        return Mat._of(field, rows, pos, col)

    def cycles(self, n) -> Subspace:
        if self.dim(n) == 0:
            return Subspace.zero(self.cat.field, 0)
        return Subspace.from_vectors(self.cat.field, self.dim(n), self.diff(n).kernel_basis())

    def boundaries(self, n) -> Subspace:
        d = self.diff(n - 1)
        return Subspace.from_vectors(self.cat.field, self.dim(n), d.transpose().sparse_rows)


def homology_dims(x: Complex, y: Complex) -> dict:
    """{n: dim H^n} of the Hom-total complex of (x, y), over its degrees in
    increasing order.  Builds every differential, lowest degree first."""
    hc = HomComplex(x.cat, x, y)
    rank = {n: hc.diff(n).rank() for n in range(hc.lo - 1, hc.hi + 1)}
    return {n: hc.dim(n) - rank[n] - rank[n - 1] for n in range(hc.lo, hc.hi + 1)}


def nonzero_homology(x: Complex, y: Complex, allowed=()) -> dict:
    """{n: dim H^n} of the Hom-total complex of (x, y) at the degrees
    outside allowed where the homology does not vanish."""
    return {n: d for n, d in homology_dims(x, y).items() if d and n not in allowed}


def _homology_at(x: Complex, y: Complex, n: int) -> int:
    """dim H^n of the Hom-total complex of (x, y), read off the two
    differentials around degree n alone."""
    hc = HomComplex(x.cat, x, y)
    return hc.dim(n) - sum(hc.diff(k).rank() for k in (n - 1, n))


class ChainMapCategory(FiniteCategory):
    """Bounded complexes over base with chain maps between them.

    Hom(x, y) is the space of degree-0 cycles of the Hom-total complex,
    built once per pair.  Payloads are dicts degree -> base morphism, with
    absent degrees zero, and compose degreewise.
    """

    def __init__(self, base: FiniteCategory):
        super().__init__(base.field)
        self.base = base
        self._hc_cache = {}

    def hom_complex(self, x: Complex, y: Complex) -> HomComplex:
        key = (x.key, y.key)
        hc = self._hc_cache.get(key)
        if hc is None:
            hc = self._hc_cache[key] = HomComplex(self.base, x, y)
        return hc

    def _hom_space(self, x, y):
        hc = self.hom_complex(x, y)
        return self._cycle_classes(hc, hc.cycles(0).basis, [])

    def _cycle_classes(self, hc, reps, extra):
        payloads = [hc.maps_from_vec(0, v) for v in reps]
        return payloads, Mat.from_columns(self.field, [*reps, *extra], hc.dim(0))

    def _p_flatten(self, x, y, fp):
        return self.hom_complex(x, y).vec_from_maps(0, fp)

    def _p_compose(self, x, y, z, fp, gp):
        out = {}
        for i, f in fp.items():
            if i in gp:
                h = f.then(gp[i])
                if h.payload:
                    out[i] = h
        return out

    def _coords_table(self, x, y, z, fps, gps):
        # one base table per degree, placed at its block of Hom-complex degree 0
        flats = [[{} for _ in gps] for _ in fps]
        at = 0
        for m, h in self.hom_complex(x, z).block(0):
            fs = [a for a, fp in enumerate(fps) if m in fp]
            gs = [b for b, gp in enumerate(gps) if m in gp]
            if fs and gs:
                fms, gms = [fps[a][m].payload for a in fs], [gps[b][m].payload for b in gs]
                sub = self.base._coords_table(x.obj(m), y.obj(m), z.obj(m), fms, gms)
                for a, row in zip(fs, sub):
                    for b, vec in zip(gs, row):
                        if vec:
                            flats[a][b].update({at + j: c for j, c in vec.items()})
            at += h.dim
        space = self.hom(x, z)
        return [[space.flat_coords(vec) for vec in row] for row in flats]

    def _p_identity(self, x):
        return {i: self.base.identity(x.obj(i)) for i in x.degrees()}


class HomotopyCategory(ChainMapCategory):
    """Chain maps modulo null-homotopic maps: Hom(x, y) is the degree-0
    homology of the Hom-total complex, with chain-map payloads as coset
    representatives."""

    def _hom_space(self, x, y):
        hc = self.hom_complex(x, y)
        null = hc.boundaries(0)  # the null-homotopic maps
        return self._cycle_classes(hc, hc.cycles(0).quotient_basis(null), null.basis)


def complex_in_quotient(qcat: QuotientCategory, cx: Complex) -> Complex:
    diffs = [qcat.lift(cx.diffs[cx.lo + i]) for i in range(len(cx.objs) - 1)]
    return Complex(qcat, cx.lo, list(cx.objs), diffs, check=False)


# -- hypothesis checkers ---------------------------------------------------


def check_thm1_conditions(q: Complex, m) -> dict:
    """The three homology conditions for a sequence 0->X->Q^1..Q^n->Y->0.

    q must have X in degree 0 and Y in degree n+1.
    """
    if q.lo != 0 or q.hi < 2:
        raise InputError("sequence must run from degree 0 to n+1 with n >= 1")
    n = q.hi - 1
    cat = q.cat
    m_stalk = stalk(cat, m)
    x_stalk = stalk(cat, q.obj(0))
    y_stalk = stalk(cat, q.obj(n + 1))

    failing = [("c1", i, d) for i, d in nonzero_homology(m_stalk, q, (0,)).items()]
    failing += [("c2", i, d) for i, d in nonzero_homology(q, m_stalk, (-n - 1,)).items()]
    failing += [("c3", 1, d) for d in [_homology_at(x_stalk, q, 1)] if d]
    failing += [("c3", -n, d) for d in [_homology_at(q, y_stalk, -n)] if d]
    kinds = {f[0] for f in failing}
    c1, c2, c3 = ("c1" not in kinds, "c2" not in kinds, "c3" not in kinds)
    return {"n": n, "c1": c1, "c2": c2, "c3": c3, "failing": failing, "ok": c1 and c2 and c3}

