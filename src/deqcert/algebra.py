"""Finite-dimensional algebras, quiver presentations and module categories.

Paths compose left to right: ``ab`` is "a then b", so a relation word like
``abcda`` reads as a walk through the quiver.  A representation assigns to
the arrow ``a: i -> j`` a matrix of shape dim(j) x dim(i) acting on column
vectors, and the action of a path is the reverse-order matrix product.
"""

from __future__ import annotations

import weakref
from collections import defaultdict

from .category import DirectSumData, FiniteCategory, Mor, fresh_key
from .errors import InputError, NonFiniteDimensionalError
from .exactla import FieldSpec, LinSolver, Mat, Subspace, _integral, _normal, _sparse, kernel, sparse_kernel

__all__ = [
    "Quiver",
    "Algebra",
    "dense_table",
    "ModuleRep",
    "path_algebra",
    "projective",
    "simple_module",
    "regular_module",
    "kernel_module",
    "image_module",
    "radical",
    "top",
    "nakayama_projective",
    "iso_from_projective",
    "is_isomorphism",
]


class Quiver:
    """Named vertices and arrows (name, source, target)."""

    def __init__(self, vertices, arrows):
        self.vertices = tuple(str(v) for v in vertices)
        if len(set(self.vertices)) != len(self.vertices):
            raise InputError("duplicate vertex names")
        self.arrows = tuple((str(n), str(s), str(t)) for (n, s, t) in arrows)
        names = [a[0] for a in self.arrows]
        if len(set(names)) != len(names):
            raise InputError("duplicate arrow names")
        vset = set(self.vertices)
        for n, s, t in self.arrows:
            if s not in vset or t not in vset:
                raise InputError(f"arrow {n} has undeclared endpoint")
        self.arrow_by_name = {a[0]: a for a in self.arrows}

    def __repr__(self):
        return f"Quiver({len(self.vertices)} vertices, {len(self.arrows)} arrows)"


class Path:
    """A composable arrow word, possibly trivial (a lazy path at a vertex)."""

    __slots__ = ("arrows", "source", "target")

    def __init__(self, arrows, source, target):
        self.arrows = tuple(arrows)
        self.source = source
        self.target = target

    @property
    def length(self):
        return len(self.arrows)

    def label(self):
        return "".join(self.arrows) if self.arrows else f"e{self.source}"

    def __eq__(self, other):
        return (
            isinstance(other, Path)
            and self.arrows == other.arrows
            and self.source == other.source
        )

    def __hash__(self):
        return hash((self.arrows, self.source))

    def __repr__(self):
        return self.label()


class QuiverPresentation:
    def __init__(self, quiver: Quiver, relations, paths):
        self.quiver = quiver
        self.relations = tuple(tuple(r) for r in relations)
        self.paths = list(paths)  # index order = algebra basis order
        self.index = {p: i for i, p in enumerate(self.paths)}


def _contains_factor(word, factors):
    for fac in factors:
        L = len(fac)
        for i in range(len(word) - L + 1):
            if tuple(word[i : i + L]) == fac:
                return True
    return False


def path_algebra(quiver: Quiver, relations=(), field: FieldSpec | None = None) -> "Algebra":
    """The quotient of the path algebra by the given monomial relations."""
    field = field or FieldSpec(0)
    rels = []
    for rel in relations:
        rel = tuple(str(a) for a in rel)
        if len(rel) < 2:
            raise InputError("relation monomials must have length >= 2")
        here = None
        for name in rel:
            if name not in quiver.arrow_by_name:
                raise InputError(f"unknown arrow {name!r} in relation")
            _, s, t = quiver.arrow_by_name[name]
            if here is not None and s != here:
                raise InputError(f"relation {'.'.join(rel)} is not a composable path")
            here = t
        rels.append(rel)

    # If a relation-free path of this length exists, pumping gives infinitely
    # many (states of the factor-avoiding automaton: vertex x relation suffix).
    bound = len(quiver.vertices) * (sum(len(r) for r in rels) + 1) + 1

    paths = [Path((), v, v) for v in quiver.vertices]
    frontier = list(paths)
    while frontier:
        new = []
        for p in frontier:
            for name, s, t in quiver.arrows:
                if s != p.target:
                    continue
                word = p.arrows + (name,)
                if _contains_factor(word, rels):
                    continue
                q = Path(word, p.source, t)
                if q.length > bound:
                    raise NonFiniteDimensionalError(
                        "quiver presentation has infinitely many relation-free paths"
                    )
                new.append(q)
        paths.extend(new)
        frontier = new

    paths.sort(key=lambda p: (p.length, quiver.vertices.index(p.source), p.arrows))
    pres = QuiverPresentation(quiver, rels, paths)
    table = {}  # a composable word is a basis path exactly when it avoids the relations
    for i, p in enumerate(paths):
        for j, q in enumerate(paths):
            k = pres.index.get(Path(p.arrows + q.arrows, p.source, q.target))
            if p.target == q.source and k is not None:
                table[i, j] = {k: field.one}
    unit = [field.zero] * len(paths)
    for v in quiver.vertices:
        unit[pres.index[Path((), v, v)]] = field.one
    return Algebra(
        field, [p.label() for p in paths], table, unit, presentation=pres
    )


def dense_table(ring):
    """dense[i][j] = the coordinates of e_i·e_j in an Algebra or a
    RingPresentation, zeros written out: the JSON report's form, stored by nothing."""
    n = ring.dim
    dense = [[[0] * n for _ in range(n)] for _ in range(n)]
    for (i, j), vec in ring.table.items():
        for k, c in vec.items():
            dense[i][j][k] = c
    return dense


class Algebra:
    """A finite-dimensional algebra by basis and structure constants: table
    maps (i, j) to e_i·e_j as {k: nonzero}, and a pair whose product is zero
    is absent.  The values are field elements (an integral rational is an
    int, a GF(p) value lies in [0, p)) and are not coerced again."""

    def __init__(self, field, basis_names, table, unit, presentation=None):
        self.field = field
        self.basis_names = list(basis_names)
        self.dim = len(self.basis_names)
        self.table = table
        self.unit = [field.coerce(x) for x in unit]
        self.presentation = presentation
        self.key = fresh_key()
        self._modcat = None  # a weak reference once modcat is read
        self._check_axioms()

    def mul(self, u, v):
        """u·v for {index: value} vectors, as {index: nonzero}: one lookup
        per pair of nonzeros, and a product that is not stored is zero."""
        acc = {}
        for i, a in u.items():
            for j, b in v.items():
                for k, s in self.table.get((i, j), {}).items():
                    acc[k] = acc[k] + a * b * s if k in acc else a * b * s
        return _normal(self.field.char, acc) if acc else acc

    def _check_axioms(self):
        basis, table = set(range(self.dim)), self.table
        if len(self.unit) != self.dim:
            raise InputError(f"unit has {len(self.unit)} entries for a basis of {self.dim}")
        if any(not {i, j, *vec} <= basis for (i, j), vec in table.items()):
            raise InputError(f"structure constants outside a basis of {self.dim}")
        unit, one = _sparse(self.unit), self.field.one
        if not all(self.mul(unit, e) == e == self.mul(e, unit) for e in ({i: one} for i in basis)):
            raise InputError("unit is not a two-sided identity")
        # (e_i e_j) e_k is nonzero only if e_i e_j holds an e_a with e_a e_k
        # stored, e_i (e_j e_k) likewise: compare those triples in row-major order
        rows, cols = defaultdict(set), defaultdict(set)
        for i, j in table:
            rows[i].add(j)
            cols[j].add(i)
        triples = {(i, j, k) for (i, j), vec in table.items() for a in vec for k in rows[a]}
        triples |= {(h, j, k) for (j, k), vec in table.items() for a in vec for h in cols[a]}
        for i, j, k in sorted(triples):
            left = self.mul(table.get((i, j), {}), {k: one})
            if left != self.mul({i: one}, table.get((j, k), {})):
                raise InputError(f"structure constants not associative at ({i},{j},{k})")

    @property
    def modcat(self) -> "ModuleCategory":
        """The module category, not owned by the algebra: it lives while a map
        or complex of it does (a Mor holds its category), else a read rebuilds it."""
        cat = self._modcat and self._modcat()
        if cat is None:
            cat = ModuleCategory(self)
            self._modcat = weakref.ref(cat)
        return cat

    def vertices(self):
        if self.presentation is None:
            raise InputError("algebra has no quiver presentation")
        return self.presentation.quiver.vertices

    def __repr__(self):
        return f"Algebra(dim {self.dim} over {self.field!r})"


class ModuleRep:
    """A quiver representation: vertex-graded spaces with arrow matrices."""

    def __init__(self, algebra, dims, mats, name="", proj_summands=None, check=True):
        self.algebra = algebra
        self.dims = dict(dims)
        self.mats = dict(mats)
        self.name = name
        self.proj_summands = tuple(proj_summands) if proj_summands is not None else None
        self.key = fresh_key()
        self.slots = list(algebra.vertices())
        self.total_dim = sum(self.dims[s] for s in self.slots)
        if check:
            self._validate()

    # -- constructors ------------------------------------------------------

    @classmethod
    def quiver_rep(cls, algebra, dims, arrow_mats, name=""):
        field = algebra.field
        full_dims = {v: int(dims.get(v, 0)) for v in algebra.vertices()}
        mats = {}
        for arr_name, s, t in algebra.presentation.quiver.arrows:
            m = arrow_mats.get(arr_name)
            if m is None:
                m = Mat.zeros(field, full_dims[t], full_dims[s])
            elif not isinstance(m, Mat):
                m = Mat(field, m) if m else Mat.zeros(field, full_dims[t], full_dims[s])
            mats[arr_name] = m
        return cls(algebra, full_dims, mats, name)

    @classmethod
    def zero(cls, algebra):
        return cls.quiver_rep(algebra, {}, {}, name="0")

    # -- validation --------------------------------------------------------

    def _validate(self):
        for name, s, t in self.algebra.presentation.quiver.arrows:
            m = self.mats[name]
            if m.shape != (self.dims[t], self.dims[s]):
                raise InputError(
                    f"arrow {name}: matrix shape {m.shape} does not match "
                    f"({self.dims[t]}, {self.dims[s]})"
                )
        for rel in self.algebra.presentation.relations:
            src = self.algebra.presentation.quiver.arrow_by_name[rel[0]][1]
            if not self.path_action(rel, src).is_zero():
                raise InputError(f"relation {'.'.join(rel)} does not act as zero")

    def path_action(self, arrow_names, source_vertex) -> Mat:
        """Matrix of the path's action, dim(target) x dim(source)."""
        q = self.algebra.presentation.quiver
        here = source_vertex
        m = Mat.identity(self.algebra.field, self.dims[here])
        for name in arrow_names:
            _, s, t = q.arrow_by_name[name]
            if s != here:
                raise InputError("non-composable arrow word")
            m = self.mats[name] * m
            here = t
        return m

    def __repr__(self):
        tag = self.name or f"dims={self.dims}"
        return f"ModuleRep({tag})"


def intertwiner_system(field, slots, src_dims, tgt_dims, arrows) -> Mat:
    """The system whose null space is the slot maps F_s: src slot s -> tgt
    slot s that intertwine every arrow.

    An arrow (s, t, a, b) acts from slot s to slot t by a on the target and
    by b on the source, and F must satisfy a·F_s - F_t·b = 0.  The unknowns
    are the blocks F_s, each tgt_dims[s] x src_dims[s], flattened row by row
    in slot order.
    """
    offsets, total = {}, 0
    for s in slots:
        offsets[s] = total
        total += tgt_dims[s] * src_dims[s]
    rows = []
    for s_src, s_tgt, a_mat, b_mat in arrows:
        a_off, n_src = offsets[s_src], src_dims[s_src]
        b_off, n_tgt = offsets[s_tgt], src_dims[s_tgt]
        b_cols = b_mat.transpose().sparse_rows
        for r, a_row in enumerate(a_mat.sparse_rows):
            for c, b_col in enumerate(b_cols):
                row = {a_off + k * n_src + c: x for k, x in a_row.items()}
                for l, x in b_col.items():
                    idx = b_off + r * n_tgt + l
                    y = _integral(field.sub(row.get(idx, 0), x))
                    if y:
                        row[idx] = y
                    else:
                        del row[idx]
                rows.append(row)
    return Mat._of(field, rows, len(rows), total)


def intertwiner_kernel(field, slots, src_dims, tgt_dims, arrows):
    """Basis of the intertwining slot maps as {flat index: nonzero} dicts,
    one per free column of the intertwiner system."""
    system = intertwiner_system(field, slots, src_dims, tgt_dims, arrows)
    return sparse_kernel(field, system.sparse_rows, system.cols)


class ModuleCategory(FiniteCategory):
    """Module category of an algebra; payloads are per-slot matrices, an
    absent slot being a zero block.  A composite holds only nonzero blocks;
    a block given to ``mor`` or made by a sum may still be zero."""

    def __init__(self, algebra: Algebra):
        super().__init__(algebra.field)
        self.algebra = algebra

    def mor(self, src, tgt, blocks) -> Mor:
        payload = {}
        for s in src.slots:
            m = blocks.get(s)
            if m is None:
                m = Mat.zeros(self.field, tgt.dims[s], src.dims[s])
            elif not isinstance(m, Mat):
                m = Mat(self.field, m)
            if m.shape != (tgt.dims[s], src.dims[s]):
                raise InputError(f"block at {s} has shape {m.shape}")
            payload[s] = m
        return Mor(self, src, tgt, payload)

    # -- hooks -------------------------------------------------------------

    def _hom_space(self, x, y):
        if x.algebra is not self.algebra or y.algebra is not self.algebra:
            raise InputError("modules over a different algebra")
        arrows = [
            (s, t, y.mats[name], x.mats[name])
            for name, s, t in self.algebra.presentation.quiver.arrows
        ]
        vecs = intertwiner_kernel(self.field, x.slots, x.dims, y.dims, arrows)
        cells = [(s, i, j) for s in x.slots for i in range(y.dims[s]) for j in range(x.dims[s])]
        payloads = []
        for vec in vecs:  # a block for each slot the vector touches, in slot order
            touched = {cells[k][0] for k in vec}
            blocks = {s: Mat.zeros(self.field, y.dims[s], x.dims[s]) for s in x.slots if s in touched}
            for k, v in vec.items():
                s, i, j = cells[k]
                blocks[s].sparse_rows[i][j] = v
            payloads.append(blocks)
        return payloads, Mat._of(self.field, vecs, len(vecs), len(cells)).transpose()

    def _p_flatten(self, x, y, fp):
        out, pos = {}, 0
        for s in x.slots:
            c = x.dims[s]
            for i, row in enumerate(fp[s].sparse_rows if s in fp else ()):
                for j, v in row.items():
                    out[pos + i * c + j] = v
            pos += y.dims[s] * c
        return out

    def _p_compose(self, x, y, z, fp, gp):
        out = {}
        for s, f in fp.items():
            g = gp.get(s)
            if g is not None:
                h = g * f
                if not h.is_zero():
                    out[s] = h
        return out

    def _coords_table(self, x, y, z, fps, gps):
        # The blocks of gps are indexed once by their middle coordinate:
        # (slot s, column k) -> (j, flat index pos[s] + r·x.dims[s] of row r
        # in Hom(x, z), value) for the entries of gps[j] at s.  Row k of a
        # block of fps[i] then meets only the entries it multiplies.
        space, p = self.hom(x, z), self.field.char
        index, pos, at = {}, {}, 0
        for s in x.slots:
            pos[s] = at
            at += z.dims[s] * x.dims[s]
        for j, gp in enumerate(gps):
            for s, g in gp.items():
                for r, row in enumerate(g.sparse_rows):
                    for k, b in row.items():
                        index.setdefault((s, k), []).append((j, pos[s] + r * x.dims[s], b))
        table = []
        for fp in fps:
            flats = [{} for _ in gps]
            for s, f in fp.items():
                for k, row in enumerate(f.sparse_rows):
                    if not row:
                        continue
                    for j, start, b in index.get((s, k), ()):
                        out = flats[j]
                        for c, a in row.items():
                            i = start + c
                            out[i] = out[i] + b * a if i in out else b * a
            table.append([space.flat_coords(_normal(p, out)) if out else {} for out in flats])
        return table

    def _p_identity(self, x):
        return {s: Mat.identity(self.field, x.dims[s]) for s in x.slots if x.dims[s]}

    def _direct_sum(self, objs):
        if not objs:
            raise InputError("empty direct sum")
        a = self.algebra
        dims = {s: sum(o.dims[s] for o in objs) for s in objs[0].slots}
        mats = {}
        for name, s, t in a.presentation.quiver.arrows:
            rows, co = [], 0
            for o in objs:
                rows += [{co + j: x for j, x in row.items()} for row in o.mats[name].sparse_rows]
                co += o.dims[s]
            mats[name] = Mat._of(self.field, rows, dims[t], dims[s])
        prov = None
        if all(o.proj_summands is not None for o in objs):
            prov = [v for o in objs for v in o.proj_summands]
        total = ModuleRep(
            a,
            dims,
            mats,
            name="(" + "+".join(o.name or "?" for o in objs) + ")",
            proj_summands=prov,
            check=False,
        )

        injections, projections = [], []
        offsets = {s: 0 for s in total.slots}
        for o in objs:
            inj_blocks, proj_blocks = {}, {}
            for s in total.slots:
                units = [{offsets[s] + i: self.field.one} for i in range(o.dims[s])]
                proj_blocks[s] = Mat._of(self.field, units, o.dims[s], dims[s])
                inj_blocks[s] = proj_blocks[s].transpose()
                offsets[s] += o.dims[s]
            injections.append(inj_blocks)
            projections.append(proj_blocks)
        return total, injections, projections


# -- standard modules ------------------------------------------------------


def projective(algebra: Algebra, vertex) -> ModuleRep:
    """Paths starting at the vertex, arrows acting by concatenation."""
    vertex = str(vertex)
    pres = algebra.presentation
    if pres is None:
        raise InputError("projective() needs a quiver-presented algebra")
    if vertex not in pres.quiver.vertices:
        raise InputError(f"unknown vertex {vertex!r}")
    mine = [p for p in pres.paths if p.source == vertex]
    by_slot = {v: [p for p in mine if p.target == v] for v in pres.quiver.vertices}
    pos = {p: by_slot[p.target].index(p) for p in mine}
    dims = {v: len(by_slot[v]) for v in pres.quiver.vertices}
    field = algebra.field
    mats = {}
    for name, s, t in pres.quiver.arrows:
        rows = [{} for _ in range(dims[t])]
        for p in by_slot[s]:
            word = p.arrows + (name,)
            if not _contains_factor(word, pres.relations):
                rows[pos[Path(word, p.source, t)]][pos[p]] = field.one
        mats[name] = Mat._of(field, rows, dims[t], dims[s])
    return ModuleRep(algebra, dims, mats, name=f"P{vertex}", proj_summands=[vertex])


def simple_module(algebra: Algebra, vertex) -> ModuleRep:
    vertex = str(vertex)
    return ModuleRep.quiver_rep(algebra, {vertex: 1}, {}, name=f"S{vertex}")


def regular_module(algebra: Algebra) -> DirectSumData:
    """The regular module as the direct sum of the vertex projectives."""
    cat = algebra.modcat
    return cat.direct_sum([projective(algebra, v) for v in algebra.vertices()])


# -- morphism calculus -----------------------------------------------------


def _block(f: Mor, s) -> Mat:
    """The slot-s block of a module map, a zero block when absent."""
    blk = f.payload.get(s)
    return blk if blk is not None else Mat.zeros(f.cat.field, f.tgt.dims[s], f.src.dims[s])


def is_isomorphism(f: Mor) -> bool:
    src, tgt = f.src, f.tgt
    if any(src.dims[s] != tgt.dims[s] for s in src.slots):
        return False
    return all(
        _block(f, s).rank() == src.dims[s] for s in src.slots if src.dims[s]
    )


def submodule(m: ModuleRep, spaces) -> tuple[ModuleRep, Mor]:
    """Sub-representation spanned by per-slot subspaces, with its inclusion."""
    cat = m.algebra.modcat
    field = m.algebra.field
    bases = {s: spaces[s].basis for s in m.slots}
    dims = {s: len(bases[s]) for s in m.slots}
    incl_blocks = {s: Mat.from_columns(field, bases[s], m.dims[s]) for s in m.slots}
    solvers = {s: LinSolver(incl_blocks[s]) for s in m.slots}

    def induced(mat, s_src, s_tgt):
        coeffs = [solvers[s_tgt].solve(mat.apply(vec)) for vec in bases[s_src]]
        if None in coeffs:
            raise InputError("subspaces are not closed under the action")
        return Mat.from_columns(field, coeffs, dims[s_tgt])

    mats = {
        name: induced(m.mats[name], s, t)
        for name, s, t in m.algebra.presentation.quiver.arrows
    }
    sub = ModuleRep(m.algebra, dims, mats, name=f"sub({m.name})", check=False)
    return sub, Mor(cat, sub, m, incl_blocks)


def quotient_module(m: ModuleRep, spaces) -> tuple[ModuleRep, Mor]:
    """Quotient by an invariant family of per-slot subspaces, with projection."""
    cat = m.algebra.modcat
    field = m.algebra.field
    reps, proj_mats, dims = {}, {}, {}
    for s in m.slots:
        full = Subspace.full(field, m.dims[s])
        reps[s] = full.quotient_basis(spaces[s])
        dims[s] = len(reps[s])
        # projection: reduce mod the subspace, then express in coset reps
        solver = LinSolver(Mat.from_columns(field, reps[s] + list(spaces[s].basis), m.dims[s]))
        units = Mat.identity(field, m.dims[s]).sparse_rows
        proj_cols = [
            {j: x for j, x in solver.solve(e).items() if j < dims[s]} for e in units
        ]
        proj_mats[s] = Mat.from_columns(field, proj_cols, dims[s])

    def induced(mat, s_src, s_tgt):
        imgs = [proj_mats[s_tgt].apply(mat.apply(vec)) for vec in reps[s_src]]
        return Mat.from_columns(field, imgs, dims[s_tgt])

    mats = {
        name: induced(m.mats[name], s, t)
        for name, s, t in m.algebra.presentation.quiver.arrows
    }
    quot = ModuleRep(m.algebra, dims, mats, name=f"quot({m.name})", check=False)
    return quot, Mor(cat, m, quot, proj_mats)


def kernel_module(f: Mor) -> tuple[ModuleRep, Mor]:
    spaces = {s: kernel(_block(f, s)) for s in f.src.slots}
    return submodule(f.src, spaces)


def image_module(f: Mor) -> tuple[ModuleRep, Mor]:
    field = f.cat.field
    spaces = {
        s: Subspace.from_vectors(field, f.tgt.dims[s], _block(f, s).transpose().sparse_rows)
        for s in f.src.slots
    }
    return submodule(f.tgt, spaces)


def _arrow_images(m: ModuleRep):
    """Per slot, the span of the images of the arrows into it."""
    field = m.algebra.field
    spaces = {s: Subspace.zero(field, m.dims[s]) for s in m.slots}
    for name, s, t in m.algebra.presentation.quiver.arrows:
        cols = m.mats[name].transpose().sparse_rows
        spaces[t] = spaces[t] + Subspace.from_vectors(field, m.dims[t], cols)
    return spaces


def radical(m: ModuleRep) -> tuple[ModuleRep, Mor]:
    """Span of all arrow images, with its inclusion."""
    return submodule(m, _arrow_images(m))


def top(m: ModuleRep) -> tuple[ModuleRep, Mor]:
    """Quotient by the radical, with its projection."""
    return quotient_module(m, _arrow_images(m))


def radical_layers(m: ModuleRep):
    """Tops of the radical filtration, as vertex -> dim dicts (top first)."""
    layers = []
    current = m
    while current.total_dim:
        t, _ = top(current)
        layers.append({s: t.dims[s] for s in t.slots if t.dims[s]})
        current, _ = radical(current)
    return layers


def iso_from_projective(proj: ModuleRep, m: ModuleRep) -> Mor | None:
    """An isomorphism from the indecomposable projective proj = P_w onto m,
    or None when there is none.

    Exact: Hom(P_w, m) is e_w m as a vector space.  When m is isomorphic to
    P_w, e_w rad m is a proper subspace of e_w m, so some Hom basis map
    sends the generator of P_w outside it; that map is onto, and with equal
    dimensions it is an isomorphism.
    """
    if proj.proj_summands is None or len(proj.proj_summands) != 1:
        raise InputError("iso_from_projective needs an indecomposable projective")
    if any(proj.dims[s] != m.dims[s] for s in proj.slots):
        return None
    return next((f for f in proj.algebra.modcat.hom(proj, m).basis if is_isomorphism(f)), None)


def nakayama_projective(algebra: Algebra, p: ModuleRep) -> ModuleRep:
    """The Nakayama functor on a direct sum of indecomposable projectives:
    the dual of Hom(p, A), graded by Hom(p, P_i)."""
    if p.proj_summands is None:
        raise InputError("nakayama_projective needs a certified projective module")
    cat = algebra.modcat
    projs = {v: projective(algebra, v) for v in algebra.vertices()}
    hom_bases = {v: cat.hom(p, projs[v]).basis for v in algebra.vertices()}
    dims = {v: len(hom_bases[v]) for v in algebra.vertices()}
    mats = {}
    for name, s, t in algebra.presentation.quiver.arrows:
        # left multiplication by the arrow: P_t -> P_s
        pres = algebra.presentation
        lmul_blocks = {}
        src_paths = {
            v: [q for q in pres.paths if q.source == t and q.target == v]
            for v in algebra.vertices()
        }
        tgt_paths = {
            v: [q for q in pres.paths if q.source == s and q.target == v]
            for v in algebra.vertices()
        }
        for v in algebra.vertices():
            rows = [{} for _ in tgt_paths[v]]
            for j, q in enumerate(src_paths[v]):
                lifted = Path((name,) + q.arrows, s, v)  # a basis path unless it meets a relation
                if lifted in tgt_paths[v]:
                    rows[tgt_paths[v].index(lifted)][j] = algebra.field.one
            lmul_blocks[v] = Mat._of(algebra.field, rows, len(tgt_paths[v]), len(src_paths[v]))
        lmul = cat.mor(projs[t], projs[s], lmul_blocks)
        # postcompose: Hom(p, P_t) -> Hom(p, P_s); the dual runs s -> t
        rows = [row[0] for row in cat.composite_coords(hom_bases[t], [lmul])]
        mats[name] = Mat._of(algebra.field, rows, dims[t], dims[s])
    return ModuleRep(algebra, dims, mats, name=f"nu({p.name})")
