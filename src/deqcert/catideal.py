"""Annihilator ideals, approximations and endomorphism rings.

Everything here is generic over a FiniteCategory.  The subcategory is
always the additive closure of a finite list of generator objects; a
morphism factors through it iff it factors through a finite direct sum of
generators, which is the same as lying in the span of composites through
single generators.
"""

from __future__ import annotations

from .algebra import Algebra
from .category import FiniteCategory, Mor, QuotientCategory
from .errors import InputError, InternalConsistencyError
from .exactla import Mat, Subspace, kernel

__all__ = [
    "SubcatSpec",
    "ideal_space",
    "factorization_through",
    "right_approximation",
    "left_approximation",
    "minimal_right_approximation",
    "approximation_witness",
    "RingPresentation",
    "end_ring",
    "quotient_ring",
]


class SubcatSpec:
    """add(generators) inside a FiniteCategory.

    Membership is tracked structurally: generators are members, and sums
    of members registered through :meth:`member` are members.  No
    isomorphism search is attempted here.
    """

    def __init__(self, cat: FiniteCategory, generators):
        if not generators:
            raise InputError("subcategory needs at least one generator")
        self.cat = cat
        self.generators = list(generators)
        self._members = {g.key for g in generators}

    def member(self, obj):
        """Register a direct sum of members as a member."""
        self._members.add(obj.key)
        return obj

    def contains(self, obj) -> bool:
        return obj.key in self._members

    def sum_of(self, objs):
        """Direct sum of members, registered as a member."""
        for o in objs:
            if not self.contains(o):
                raise InputError("summand is not a known member of the subcategory")
        data = self.cat.direct_sum(objs)
        self.member(data.obj)
        return data


def factorization_through(cat, spec: SubcatSpec, x, y) -> Subspace:
    """Span of morphisms x -> y factoring through the subcategory."""
    vecs = []
    for g in spec.generators:
        for row in cat.composite_coords(cat.hom(x, g).basis, cat.hom(g, y).basis):
            vecs.extend(row)
    return Subspace.from_vectors(cat.field, cat.hom(x, y).dim, vecs)


def ideal_space(cat, spec: SubcatSpec, x, y, kind: str) -> Subspace:
    """The ideal's subspace of Hom(x, y) in Hom-basis coordinates.

    kind: "R" (right annihilator: every map from the subcategory into x,
    followed by f, is zero), "L" (left annihilator: f followed by every
    map from y into the subcategory is zero), "F" (factors through it),
    "I" = L & F, "J" = R & F.

    Structure settles some answers before any composite is taken.  An
    object built from generators (see ``_from_generators``) has an
    identity that factors through the generators, so L(x, y) = 0 when y is
    one, R(x, y) = 0 when x is one, and F(x, y) is all of Hom(x, y) when
    either is.  I and J stop at a zero L or R, since I ⊆ L and J ⊆ R.
    """
    if kind in ("I", "J"):
        ann = ideal_space(cat, spec, x, y, "L" if kind == "I" else "R")
        return ann.intersect(ideal_space(cat, spec, x, y, "F")) if ann.dim else ann
    if kind not in ("L", "R", "F"):
        raise InputError(f"unknown ideal kind {kind!r}")
    space = cat.hom(x, y)
    if kind == "F":
        if _from_generators(cat, spec, x) or _from_generators(cat, spec, y):
            return Subspace.full(cat.field, space.dim)
        return factorization_through(cat, spec, x, y)
    if not space.dim or _from_generators(cat, spec, y if kind == "L" else x):
        return Subspace.zero(cat.field, space.dim)
    rows = []  # one block per probe h, column j the image of basis map j
    for g in spec.generators:
        if kind == "R":  # h: g -> x;  f dies iff h.then(f)=0
            per_probe = cat.composite_coords(cat.hom(g, x).basis, space.basis)
            n = cat.hom(g, y).dim
        else:  # h: y -> g;  f dies iff f.then(h)=0
            per_probe = zip(*cat.composite_coords(space.basis, cat.hom(y, g).basis))
            n = cat.hom(x, g).dim
        for images in per_probe:
            rows += Mat.from_columns(cat.field, images, n).sparse_rows
    return kernel(Mat._of(cat.field, rows, len(rows), space.dim))


def _from_generators(cat, spec: SubcatSpec, obj) -> bool:
    """Is obj a generator, or a sum made by ``cat.direct_sum`` of objects
    built from generators?  What ``spec.member`` records rests on a
    theorem's hypothesis, not on structure, and is not read here."""
    if any(obj.key == g.key for g in spec.generators):
        return True
    parts = cat.summands_by_key.get(obj.key)
    return parts is not None and all(_from_generators(cat, spec, o) for o in parts)


# -- approximations --------------------------------------------------------
#
# A right add(D)-approximation of x is a map f: d -> x from a member d such
# that every map from a generator into x factors through f; a left one is
# the dual.  The universal approximation sums one copy of a generator per
# Hom basis element; the minimal one drops copies greedily.


def _generator_maps(cat, spec: SubcatSpec, x, side="right"):
    """(generator, basis map) pairs over a Hom basis of Hom(g, x) (right) or
    Hom(x, g) (left) for every generator g.

    With no maps at all, one generator with the zero map stands in: the
    zero approximation from a zero-multiplicity sum is awkward to represent.
    """
    def space(g):
        return cat.hom(g, x) if side == "right" else cat.hom(x, g)

    pairs = [(g, b) for g in spec.generators for b in space(g).basis]
    if not pairs:
        g = spec.generators[0]
        pairs = [(g, space(g).zero())]
    return pairs


def _assemble(cat, spec: SubcatSpec, x, pairs):
    """Sum the pairs' maps out of the direct sum of their generators, which
    is registered as a member; returns (sum_data, mor: sum -> x)."""
    data = spec.sum_of([g for g, _ in pairs])
    out = cat.zero_mor(data.obj, x)
    for proj, (_, b) in zip(data.projections, pairs):
        out = out + proj.then(b)
    return data, out


def right_approximation(cat, spec: SubcatSpec, x):
    """Universal right approximation; returns (sum_data, mor: sum -> x)."""
    return _assemble(cat, spec, x, _generator_maps(cat, spec, x))


def left_approximation(cat, spec: SubcatSpec, x):
    """Universal left approximation; returns (sum_data, mor: x -> sum)."""
    pairs = _generator_maps(cat, spec, x, "left")
    data = spec.sum_of([g for g, _ in pairs])
    out = cat.zero_mor(x, data.obj)
    for inj, (_, b) in zip(data.injections, pairs):
        out = out + b.then(inj)
    return data, out


def minimal_right_approximation(cat, spec: SubcatSpec, x):
    """Right approximation with summand copies dropped greedily.

    Summands are tried in the order of the universal approximation; after
    each drop that keeps the approximation property the scan restarts.
    Returns (sum_data, mor: sum -> x).
    """
    pairs = _generator_maps(cat, spec, x)
    changed = True
    while changed and len(pairs) > 1:
        changed = False
        for drop in range(len(pairs)):
            trial = pairs[:drop] + pairs[drop + 1 :]
            if approximation_witness(cat, spec, _assemble(cat, spec, x, trial)[1], "right") is None:
                pairs = trial
                changed = True
                break
    return _assemble(cat, spec, x, pairs)


def approximation_witness(cat, spec: SubcatSpec, f: Mor, side: str):
    """None if f is a right (side "right") or left ("left") approximation;
    otherwise the first generator map, in Hom-basis order, that does not
    factor through f."""
    if side not in ("left", "right"):
        raise InputError("side must be 'left' or 'right'")
    for g in spec.generators:
        space = cat.hom(g, f.tgt) if side == "right" else cat.hom(f.src, g)
        if space.dim == 0:
            continue
        if side == "right":
            through = [row[0] for row in cat.composite_coords(cat.hom(g, f.src).basis, [f])]
        else:
            (through,) = cat.composite_coords([f], cat.hom(f.tgt, g).basis)
        span = Subspace.from_vectors(cat.field, space.dim, through)
        if span.dim == space.dim:
            continue
        for j, b in enumerate(space.basis):
            if not span.contains({j: cat.field.one}):
                return b
    return None


# -- endomorphism rings ----------------------------------------------------


class RingPresentation:
    """A finite-dimensional ring by basis labels and structure constants,
    stored as in ``Algebra``, with no axiom check."""

    def __init__(self, field, labels, table, unit):
        self.field = field
        self.labels = list(labels)
        self.dim = len(self.labels)
        self.table = table  # (i, j) -> {k: nonzero} of basis_i * basis_j
        self.unit = list(unit)

    def to_algebra(self) -> Algebra:
        return Algebra(self.field, self.labels, self.table, self.unit)

    # the structure-constant product of Algebra, on {index: value} vectors
    mul = Algebra.mul

    def __repr__(self):
        return f"RingPresentation(dim {self.dim})"


def end_ring(cat, obj) -> RingPresentation:
    """End(obj) in the given category (which may already be a quotient)."""
    space = cat.hom(obj, obj)
    table = {}
    for i, row in enumerate(cat.composite_coords(space.basis, space.basis)):
        table.update(((i, j), vec) for j, vec in enumerate(row) if vec)
    coords = space.coords(cat.identity(obj).payload)
    unit = [coords.get(i, cat.field.zero) for i in range(space.dim)]  # an Algebra's unit is dense
    return RingPresentation(cat.field, [f"e{i}" for i in range(space.dim)], table, unit)


def quotient_ring(cat, obj, ideal: Subspace) -> RingPresentation:
    """End(obj)/ideal, with an internal two-sidedness check on the ideal."""
    space = cat.hom(obj, obj)
    if ideal.ambient != space.dim:
        raise InputError("ideal lives in the wrong endomorphism ring")
    us = [space.from_coords(v) for v in ideal.basis]
    products = cat.composite_coords(space.basis, us) + cat.composite_coords(us, space.basis)
    if not all(ideal.contains(vec) for row in products for vec in row):
        raise InternalConsistencyError("subspace is not a two-sided ideal of the endomorphism ring")
    return end_ring(QuotientCategory(cat, lambda a, b: ideal), obj)
