"""A small interface for additive categories with computable Hom spaces.

Everything downstream (ideals, approximations, complexes, the theorem
engines) is written against this interface.  A category provides, for any
pair of objects, a finite-dimensional Hom space with a distinguished basis
and exact coordinates.  A morphism's payload is a dict whose absent keys
are zero (slot blocks, degree or grade components); sums and scalar
multiples are taken componentwise here, and composition, identities and
coordinates go through the owning category.  A composite leaves out every
part that vanishes, so a zero composite has the payload ``{}``.

Composition is written left to right throughout: ``f.then(g)`` is "f
followed by g".
"""

from __future__ import annotations

import itertools

from .errors import InputError, InternalConsistencyError
from .exactla import LinSolver, Mat, Subspace, _normal, _sparse

_KEYS = itertools.count()


def fresh_key() -> int:
    """Unique token for object identity / Hom caching."""
    return next(_KEYS)


def sparse_add(fp, gp):
    """Sum of two dict payloads whose absent keys are zero."""
    out = dict(fp)
    for k, g in gp.items():
        out[k] = out[k] + g if k in out else g
    return out


class Mor:
    """A morphism: source, target and a category-specific payload."""

    __slots__ = ("cat", "src", "tgt", "payload")

    def __init__(self, cat, src, tgt, payload):
        self.cat = cat
        self.src = src
        self.tgt = tgt
        self.payload = payload

    def then(self, other: "Mor") -> "Mor":
        """Composite self-then-other (left-to-right)."""
        if other.cat is not self.cat:
            raise InputError("cannot compose morphisms from different categories")
        if other.src is not self.tgt and other.src.key != self.tgt.key:
            raise InputError("composition target/source mismatch")
        return Mor(
            self.cat,
            self.src,
            other.tgt,
            self.cat._p_compose(self.src, self.tgt, other.tgt, self.payload, other.payload),
        )

    def __add__(self, other):
        self._same_homset(other)
        return Mor(self.cat, self.src, self.tgt, sparse_add(self.payload, other.payload))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self.scale(self.cat.field.neg(self.cat.field.one))

    def scale(self, c):
        if c == self.cat.field.one:  # payloads are never changed in place
            return self
        payload = {k: m.scale(c) for k, m in self.payload.items()}
        return Mor(self.cat, self.src, self.tgt, payload)

    def coords(self):
        return self.cat.hom(self.src, self.tgt).coords(self.payload)

    def is_zero(self) -> bool:
        return not self.coords()

    def _same_homset(self, other):
        if (
            other.cat is not self.cat
            or other.src.key != self.src.key
            or other.tgt.key != self.tgt.key
        ):
            raise InputError("morphisms do not live in the same Hom space")

    def __repr__(self):
        return f"Mor({self.src!r} -> {self.tgt!r})"


class HomSpace:
    """A Hom space with basis, exact coordinates and a flat ambient chart.

    ``chart`` holds, as columns in the flat chart of ``cat._p_flatten``,
    the basis and then any generators to be quotiented away when taking
    coordinates (ideal elements, null-homotopic maps); coordinates of a
    payload are those of its class in the span of basis + generators,
    solved from its flat {index: nonzero} dict, as an {index: nonzero}
    dict over the basis.  A category caches only the basis payloads and the
    chart's solver, which hold no category and no Mor; the basis maps are
    built the first time they are read.
    """

    __slots__ = ("cat", "src", "tgt", "payloads", "dim", "_solver", "_basis")

    def __init__(self, cat, src, tgt, payloads, solver: LinSolver):
        self.cat = cat
        self.src = src
        self.tgt = tgt
        self.payloads = payloads
        self.dim = len(payloads)
        self._solver = solver
        self._basis = None

    @property
    def basis(self):
        if self._basis is None:
            self._basis = [Mor(self.cat, self.src, self.tgt, p) for p in self.payloads]
        return self._basis

    def coords(self, payload):
        if not payload:  # the zero payload of every category is {}
            return {}
        return self.flat_coords(self.cat._p_flatten(self.src, self.tgt, payload))

    def flat_coords(self, flat):
        """The coordinates of a flat {index: nonzero} vector of the chart;
        a vector outside the span of the chart's columns raises."""
        if not flat:
            return {}
        sol = self._solver.solve(flat)
        if sol is None:
            raise InternalConsistencyError("morphism outside its computed Hom space")
        return {j: x for j, x in sol.items() if j < self.dim}

    def from_coords(self, vec) -> Mor:
        """The morphism with coordinates vec: an {index: nonzero} dict of
        field elements, or a dense sequence of them of length dim."""
        if not isinstance(vec, dict):
            if len(vec) != self.dim:
                raise InputError("coordinate length mismatch")
            vec = _sparse(vec)
        out = self.zero()
        for j in sorted(vec):
            out = out + self.basis[j].scale(vec[j])
        return out

    def zero(self) -> Mor:
        return Mor(self.cat, self.src, self.tgt, {})

    def __repr__(self):
        return f"HomSpace(dim {self.dim})"


class MorphismEquations:
    """Linear equations in unknown morphisms h_0, h_1, ..., with h_i in spaces[i].

    equations lists (target, terms): the equation lives in the HomSpace
    target and reads sum of its terms = rhs, a term (i, f, side) standing
    for f.then(h_i) when side is "pre" and for h_i.then(f) when it is
    "post"; a sign rides on f.  The matrix has one column per basis element
    of each unknown space, in order, and stacks the coordinates in each
    target, in equation order.  A term's column block is one
    ``composite_coords`` table, and the blocks of one unknown add, since
    coordinates are linear.
    """

    def __init__(self, cat, spaces, equations):
        self.field = cat.field
        self.spaces = list(spaces)
        self.targets = [target for target, _ in equations]
        starts = self.starts = list(
            itertools.accumulate((space.dim for space in self.spaces), initial=0)
        )
        rows = []
        for target, terms in equations:
            block = [{} for _ in range(target.dim)]
            for i, f, side in terms:
                space = self.spaces[i]
                first, second = (f, space) if side == "pre" else (space, f)
                if f.cat is not cat or first.tgt.key != second.src.key:
                    raise InputError(f"a term's map does not compose with unknown {i}'s space")
                if (first.src.key, second.tgt.key) != (target.src.key, target.tgt.key):
                    raise InputError("a term's composite lands outside its equation's target")
                if side == "pre":
                    (images,) = cat.composite_coords([f], space.basis)
                else:
                    images = [row[0] for row in cat.composite_coords(space.basis, [f])]
                for col, vec in enumerate(images, starts[i]):
                    for r, x in vec.items():
                        row = block[r]
                        row[col] = row[col] + x if col in row else x
            rows.extend(_normal(self.field.char, row) for row in block)
        self.matrix = Mat._of(self.field, rows, len(rows), starts[-1])
        self._solver = LinSolver(self.matrix)

    def solve(self, rhs):
        """The maps h_i solving the equations, one right-hand side per
        equation (a Mor, or None for zero), zero on every free column of the
        matrix; None when there is no solution."""
        vec, pos = {}, 0
        for target, r in zip(self.targets, rhs):
            if r is not None:
                vec.update((pos + j, c) for j, c in target.coords(r.payload).items())
            pos += target.dim
        if not vec:  # the zero maps, which a solve would return too
            return [space.zero() for space in self.spaces]
        sol = self._solver.solve(vec)
        if sol is None:
            return None
        return [
            space.from_coords({j - k: c for j, c in sol.items() if k <= j < k + space.dim})
            for space, k in zip(self.spaces, self.starts)
        ]


class DirectSumData:
    """A direct sum with its canonical injections and projections."""

    __slots__ = ("obj", "summands", "injections", "projections")

    def __init__(self, cat, summands, obj, inj_payloads, proj_payloads):
        self.obj = obj
        self.summands = summands
        self.injections = [Mor(cat, s, obj, p) for s, p in zip(summands, inj_payloads)]
        self.projections = [Mor(cat, obj, s, p) for s, p in zip(summands, proj_payloads)]


class FiniteCategory:
    """Base class; subclasses implement the payload-level hooks."""

    def __init__(self, field):
        self.field = field
        self._hom_cache = {}
        self._sum_cache = {}
        self.summands_by_key = {}  # the key of each sum built by direct_sum -> its summands

    # -- public API --------------------------------------------------------

    def hom(self, x, y) -> HomSpace:
        key = (x.key, y.key)
        entry = self._hom_cache.get(key)
        if entry is None:
            payloads, chart = self._hom_space(x, y)
            entry = self._hom_cache[key] = (payloads, LinSolver(chart))
        return HomSpace(self, x, y, *entry)

    def identity(self, x) -> Mor:
        return Mor(self, x, x, self._p_identity(x))

    def zero_mor(self, x, y) -> Mor:
        return Mor(self, x, y, {})

    def composite_coords(self, fs, gs):
        """table[i][j] = the coordinates of fs[i].then(gs[j]), the fs maps
        x -> y and the gs maps y -> z, from one ``_coords_table`` call; a
        composite that vanishes is answered with {} and no solve."""
        if not fs or not gs:
            return [[] for _ in fs]
        x, y, z = fs[0].src, fs[0].tgt, gs[0].tgt
        if any(f.cat is not self or f.src.key != x.key or f.tgt.key != y.key for f in fs) or any(
            g.cat is not self or g.src.key != y.key or g.tgt.key != z.key for g in gs
        ):
            raise InputError("composite table operands do not share their endpoints")
        return self._coords_table(x, y, z, [f.payload for f in fs], [g.payload for g in gs])

    def direct_sum(self, objs) -> DirectSumData:
        objs = list(objs)
        key = tuple(o.key for o in objs)
        entry = self._sum_cache.get(key)
        if entry is None:
            entry = self._sum_cache[key] = self._direct_sum(objs)
            self.summands_by_key[entry[0].key] = objs
        return DirectSumData(self, objs, *entry)

    def mor_from_blocks(self, src_sum: DirectSumData, tgt_sum: DirectSumData, blocks) -> Mor:
        """Assemble src_sum.obj -> tgt_sum.obj from a matrix of component maps.

        blocks[i][j] is a Mor from src summand i to tgt summand j (or None).
        """
        out = self.zero_mor(src_sum.obj, tgt_sum.obj)
        for i, proj in enumerate(src_sum.projections):
            for j, inj in enumerate(tgt_sum.injections):
                blk = blocks[i][j]
                if blk is not None:
                    out = out + proj.then(blk).then(inj)
        return out

    # -- hooks -------------------------------------------------------------

    def _hom_space(self, x, y):
        """The basis payloads of Hom(x, y) and its chart (see HomSpace)."""
        raise NotImplementedError

    def _direct_sum(self, objs):
        """(sum object, injection payloads, projection payloads)."""
        raise NotImplementedError

    def _p_compose(self, x, y, z, fp, gp):
        """The payload of fp-then-gp, naming only the parts that are nonzero."""
        raise NotImplementedError

    def _coords_table(self, x, y, z, fps, gps):
        """table[i][j] = the coordinates in Hom(x, z) of fps[i]-then-gps[j], solved
        by ``HomSpace.flat_coords`` from a flat vector built without a payload."""
        raise NotImplementedError

    def _p_identity(self, x):
        raise NotImplementedError

    def _p_flatten(self, x, y, fp):
        """The nonzero payload fp as a {flat index: nonzero} dict."""
        raise NotImplementedError


class QuotientCategory(FiniteCategory):
    """Same objects as the base, Hom spaces divided by an ideal.

    ``ideal_fn(x, y)`` returns the ideal's subspace in the coordinates of
    the base Hom space; it is called once per pair and kept with that space,
    whose coordinates flatten the payloads: base payloads as coset reps.
    """

    def __init__(self, base: FiniteCategory, ideal_fn):
        super().__init__(base.field)
        self.base = base
        self.ideal_fn = ideal_fn
        self._ideals = {}  # (x key, y key) -> (base Hom(x, y), ideal)

    def ideal(self, x, y) -> Subspace:
        """The subspace of the base Hom(x, y) that Hom(x, y) here divides by."""
        self.hom(x, y)
        return self._ideals[(x.key, y.key)][1]

    def _hom_space(self, x, y):
        base_hom = self.base.hom(x, y)
        ideal = self.ideal_fn(x, y)
        if ideal.ambient != base_hom.dim:
            raise InternalConsistencyError("ideal subspace has wrong ambient dimension")
        self._ideals[(x.key, y.key)] = base_hom, ideal
        if not ideal.dim:  # the base basis and the identity chart, as the general path gives
            return base_hom.payloads, Mat.identity(self.field, base_hom.dim)
        reps = Subspace.full(self.field, base_hom.dim).quotient_basis(ideal)
        payloads = [base_hom.from_coords(v).payload for v in reps]
        return payloads, Mat.from_columns(self.field, reps + list(ideal.basis), base_hom.dim)

    def _direct_sum(self, objs):
        data = self.base.direct_sum(objs)
        return data.obj, [m.payload for m in data.injections], [m.payload for m in data.projections]

    def _p_compose(self, x, y, z, fp, gp):
        return self.base._p_compose(x, y, z, fp, gp)

    def _coords_table(self, x, y, z, fps, gps):
        space = self.hom(x, z)  # base coordinates are this category's flat vectors
        table = self.base._coords_table(x, y, z, fps, gps)
        return [[space.flat_coords(vec) for vec in row] for row in table]

    def _p_identity(self, x):
        return self.base._p_identity(x)

    def _p_flatten(self, x, y, fp):
        return self._ideals[(x.key, y.key)][0].coords(fp)

    def lift(self, f: Mor) -> Mor:
        """View a base morphism in the quotient (or re-tag a quotient rep)."""
        return Mor(self, f.src, f.tgt, f.payload)


class StrictAuto:
    """A strict automorphism F: F^a(F^b(x)) is the object F^(a+b)(x) itself.

    obj(x, k) reads x as F^j(root) and returns F^(j+k)(root) from one power
    cache, a dict that maps (root key, power) to F^power(root) and the key
    of each power to its (root, power).  Powers reduce modulo a finite
    ``order``.  Subclasses supply mor(f, k) and _power(root, k), which is
    called once per root and nonzero reduced power.  ``cache`` lets several
    functor objects share one cache.
    """

    order = None  # finite order, or None

    def __init__(self, cache=None):
        self._cache = {} if cache is None else cache

    def obj(self, x, k: int = 1):
        root, power = self._cache.get(x.key, (x, 0))
        power += k
        if self.order:
            power %= self.order
        if not power:
            return root
        out = self._cache.get((root.key, power))
        if out is None:
            out = self._cache[(root.key, power)] = self._power(root, power)
            self._cache[out.key] = (root, power)
        return out

    def mor(self, f: Mor, k: int = 1) -> Mor:
        raise NotImplementedError

    def _power(self, root, k: int):
        raise NotImplementedError
