"""The morphism-equation solver shared by theta and the angle fillers, and
the flat vectors every Hom space's coordinates are solved from."""

import itertools
import random
import weakref
from fractions import Fraction

import pytest

from deqcert import angulate, derivedeq
from deqcert.angulate import KbProjCat, NAngle, cone_triangle, verify_theorem2
from deqcert.catideal import SubcatSpec, ideal_space
from deqcert.category import Mor, MorphismEquations, QuotientCategory
from deqcert.complexes import ChainMapCategory, Complex, HomotopyCategory
from deqcert.errors import InputError, InternalConsistencyError
from deqcert.exactla import FieldSpec, LinSolver, Mat, Subspace
from deqcert.orbit import (
    AdmissibleSet,
    OrbitCategory,
    QuiverTwistAuto,
    ShiftAuto,
    corollary_orbit_verify,
)
from deqcert.presets import a2_triangle, a3, cyclic_nakayama, d_split_sequence, kxx

import oracles
from draws import random_element, random_mor
from oracles import equal, verify_weak_axioms


def _projectives(char=0):
    fx = cyclic_nakayama(2, 3, FieldSpec(char))
    return fx.algebra.modcat, fx.projectives["1"], fx.projectives["2"]


def _system(cat, p1, p2):
    """Unknowns h0: P1 -> P1 and h1: P2 -> P2, coupled through a: P1 -> P2:
    h0.a - a.h1 in Hom(P1, P2), and h0.r + r.h0 in End(P1) for a radical
    r, two terms in one unknown whose coordinates add (and cancel over
    GF(2), End(P1) being commutative)."""
    a = cat.hom(p1, p2).basis[0]
    r = next(e for e in cat.hom(p1, p1).basis if e.then(e).is_zero())
    spaces = [cat.hom(p1, p1), cat.hom(p2, p2)]
    equations = [
        (cat.hom(p1, p2), [(0, a, "post"), (1, -a, "pre")]),
        (cat.hom(p1, p1), [(0, r, "post"), (0, r, "pre")]),
    ]
    return spaces, equations


def _lhs(equations, hs):
    """The left-hand side of each equation at the maps hs, composed pair by
    pair with Mor.then: the reference for the matrix's composite tables."""
    out = []
    for target, terms in equations:
        images = [f.then(hs[i]) if side == "pre" else hs[i].then(f) for i, f, side in terms]
        out.append(sum(images, target.zero()))
    return out


def _stacked(equations, mors):
    """Coordinates of one map per equation, stacked in equation order."""
    out, pos = {}, 0
    for (target, _), f in zip(equations, mors):
        out.update((pos + j, c) for j, c in target.coords(f.payload).items())
        pos += target.dim
    return out


def _pairwise_matrix(cat, spaces, equations):
    """The system's matrix built column by column: each unknown basis map,
    the other unknowns zero, through _lhs and coords."""
    cols = []
    for i, space in enumerate(spaces):
        for b in space.basis:
            hs = [sp.zero() for sp in spaces]
            hs[i] = b
            cols.append(_stacked(equations, _lhs(equations, hs)))
    return Mat.from_columns(cat.field, cols, sum(target.dim for target, _ in equations))


def test_matrix_has_a_column_per_basis_element_and_stacks_the_targets():
    for char in (0, 2, 101):
        cat, p1, p2 = _projectives(char)
        spaces, equations = _system(cat, p1, p2)
        eqs = MorphismEquations(cat, spaces, equations)
        rows = sum(target.dim for target, _ in equations)
        assert eqs.matrix == _pairwise_matrix(cat, spaces, equations)
        assert eqs.matrix.shape == (rows, sum(sp.dim for sp in spaces))
        # h0.r + r.h0 = 2 h0.r, whose rows vanish exactly over GF(2)
        radical_rows = eqs.matrix.sparse_rows[equations[0][0].dim :]
        assert (char == 2) == (radical_rows == [{}] * len(radical_rows))


def test_solvable_system_returns_maps_that_satisfy_every_equation(monkeypatch):
    solves = []
    solve = LinSolver.solve

    def counting(self, b):
        solves.append(b)
        return solve(self, b)

    monkeypatch.setattr(LinSolver, "solve", counting)
    for char in (0, 2, 101):
        cat, p1, p2 = _projectives(char)
        spaces, equations = _system(cat, p1, p2)
        eqs = MorphismEquations(cat, spaces, equations)
        rng = random.Random(char)
        for _ in range(5):
            known = [random_mor(cat, sp.src, sp.tgt, rng) for sp in spaces]
            rhs = _lhs(equations, known)
            sol = eqs.solve(rhs)
            assert sol is not None
            assert [(h.src, h.tgt) for h in sol] == [(sp.src, sp.tgt) for sp in spaces]
            assert all(equal(got, want) for got, want in zip(_lhs(equations, sol), rhs))
        # None stands for a zero right-hand side, whose solution is the
        # zero maps without a solve
        del solves[:]
        zero = eqs.solve([None, None])
        assert [(h.src, h.tgt) for h in zero] == [(sp.src, sp.tgt) for sp in spaces]
        assert all(h.is_zero() for h in zero) and solves == []


def test_unsolvable_system_returns_none():
    cat, p1, p2 = _projectives()
    spaces, equations = _system(cat, p1, p2)
    eqs = MorphismEquations(cat, spaces, equations)
    unsolvable = 0
    for k, (target, _) in enumerate(equations):
        for b in target.basis:
            rhs = [t.zero() for t, _ in equations]
            rhs[k] = b
            vec = _stacked(equations, rhs)
            augmented = Mat.from_columns(
                cat.field, eqs.matrix.transpose().sparse_rows + [vec], eqs.matrix.rows
            )
            sol = eqs.solve(rhs)
            if augmented.rank() > eqs.matrix.rank():
                assert sol is None
                unsolvable += 1
            else:
                assert sol is not None
    assert unsolvable
    # the identity of P1 is not in the radical
    assert eqs.solve([None, cat.identity(p1)]) is None


def test_empty_unknowns_and_empty_equations():
    cat, p1, p2 = _projectives()
    target = cat.hom(p1, p2)
    # no unknowns: solvable exactly when every right-hand side is zero
    none = MorphismEquations(cat, [], [(target, [])])
    assert none.matrix.shape == (target.dim, 0)
    assert none.solve([target.zero()]) == [] and none.solve([None]) == []
    assert none.solve([target.basis[0]]) is None
    # no equations: every unknown is free, and the solution is zero
    space = cat.hom(p1, p1)
    free = MorphismEquations(cat, [space, target], [])
    assert free.matrix.shape == (0, space.dim + target.dim)
    sol = free.solve([])
    assert len(sol) == 2 and all(h.is_zero() for h in sol)


def test_a_term_whose_map_does_not_compose_with_its_unknown_is_rejected():
    cat, p1, p2 = _projectives()
    spaces, equations = _system(cat, p1, p2)
    a = cat.hom(p1, p2).basis[0]
    # a: P1 -> P2 cannot come before h0: P1 -> P1, nor after h1: P2 -> P2
    for term in [(0, a, "pre"), (1, a, "post")]:
        with pytest.raises(InputError, match="does not compose"):
            MorphismEquations(cat, spaces, [(cat.hom(p1, p2), [term])])
    # a map of another category composes with nothing here
    other = cyclic_nakayama(2, 3).algebra.modcat
    alien = Mor(other, p1, p2, a.payload)
    with pytest.raises(InputError, match="does not compose"):
        MorphismEquations(cat, spaces, [(cat.hom(p1, p2), [(0, alien, "post")])])


def test_a_term_whose_composite_misses_its_target_is_rejected():
    cat, p1, p2 = _projectives()
    spaces, equations = _system(cat, p1, p2)
    (first, first_terms), (radical, radical_terms) = equations
    # h0.a lands in Hom(P1, P2), not in End(P1); h0.r and r.h0 in End(P1)
    for target, terms in [(radical, first_terms[:1]), (first, radical_terms)]:
        with pytest.raises(InputError, match="outside its equation's target"):
            MorphismEquations(cat, spaces, [(target, terms)])
    # an unknown space of dimension 0 is checked all the same
    fx = cyclic_nakayama(2, 3)
    cat, s1, s2 = fx.algebra.modcat, fx.simples["1"], fx.simples["2"]
    empty = cat.hom(s1, s2)
    assert empty.dim == 0
    with pytest.raises(InputError, match="outside its equation's target"):
        MorphismEquations(cat, [empty], [(cat.hom(s1, s1), [(0, cat.identity(s2), "post")])])


def _recording(monkeypatch, module):
    """Record (cat, system, equations) of each MorphismEquations that module builds."""
    seen, build = [], module.MorphismEquations

    def recording(cat, spaces, equations):
        eqs = build(cat, spaces, equations)
        seen.append((cat, eqs, equations))
        return eqs

    monkeypatch.setattr(module, "MorphismEquations", recording)
    return seen


def _four_term_fill(cat, tri):
    """The filler system of two four-term sequences X -> Y -> C -> Sigma X
    -> Sigma X (the last map the identity), zero on the first two terms:
    its middle square holds a pre- and a negated post-composition term.
    The sequence is no angle; only the system's matrix is looked at."""
    (x, y, c), sigma = tri.objects, tri.sigma
    sx = sigma.obj(x)
    seq = NAngle(sigma, [x, y, c, sx], tri.maps + [tri.connecting], cat.identity(sx))
    oracles._fill_angle_square(cat, sigma, seq, seq, cat.zero_mor(x, x), cat.zero_mor(y, y))


@pytest.mark.parametrize("char", [0, 2, 101])
def test_system_matrices_match_the_pairwise_reference(char, monkeypatch):
    # theta of Theorem 1, theta of Theorem 2 on a cone triangle and on a
    # shift-orbit triangle, and the weak-axiom fillers: each matrix equals
    # the one made column by column with Mor.then and coords
    field = FieldSpec(char)
    thm1 = _recording(monkeypatch, derivedeq)
    fx = cyclic_nakayama(3, 2, field)
    derivedeq.build_tilting(*d_split_sequence(fx.algebra, fx.simples["1"]))
    assert len(thm1) == 1

    seen = _recording(monkeypatch, angulate)
    fx = cyclic_nakayama(2, 3, field)
    kb = KbProjCat(fx.algebra)
    p1, p2 = fx.projectives["1"], fx.projectives["2"]
    x, m = kb.stalk_obj(p1), kb.stalk_obj(p2)
    cone = cone_triangle(kb, Mor(kb, x, m, {0: fx.algebra.modcat.hom(p1, p2).basis[0]}))
    verify_theorem2(kb, kb.sigma, cone, m)
    tri = a2_triangle(field)
    orbit = OrbitCategory(tri.cat, ShiftAuto(tri.cat), AdmissibleSet([0, 1]))
    corollary_orbit_verify(orbit, tri.cat.sigma, tri.triangle, tri.m)
    assert [len(eqs.targets) for _, eqs, _ in seen] == [2, 2]  # the two theta systems
    fills = _recording(monkeypatch, oracles)
    fx = a3(field)
    kb = KbProjCat(fx.algebra)
    x, y, z = (kb.stalk_obj(fx.projectives[v]) for v in "321")
    angles = [cone_triangle(kb, kb.hom(x, y).basis[0]), cone_triangle(kb, kb.hom(y, z).basis[0])]
    verify_weak_axioms(kb, kb.sigma, angles)
    _four_term_fill(kb, angles[0])
    assert len(seen) == 2 and len(fills) > 1 and any(len(terms) == 2 for _, terms in fills[-1][2])

    systems = thm1 + seen + fills
    assert all(not eqs.matrix.is_zero() for _, eqs, _ in systems[:3])
    for cat, eqs, equations in systems:
        assert eqs.matrix == _pairwise_matrix(cat, eqs.spaces, equations)


def test_every_hom_space_chart_holds_its_basis():
    # each category hands HomSpace the flat vectors of its basis as the
    # chart, so the k-th basis element has the k-th unit vector as coordinates
    cat, p1, p2 = _projectives()
    a = cat.hom(p1, p2).basis[0]
    x = Complex(cat, 0, [p1, p2], [a])
    quotient = QuotientCategory(cat, lambda u, v: ideal_space(cat, SubcatSpec(cat, [p2]), u, v, "F"))
    tri = a2_triangle()
    orbit = OrbitCategory(tri.cat, ShiftAuto(tri.cat), AdmissibleSet([0, 1]))
    spaces = [cat.hom(p1, p1), cat.hom(p2, p1), quotient.hom(p1, p1)]
    spaces += [ChainMapCategory(cat).hom(x, x), HomotopyCategory(cat).hom(x, x)]
    spaces += [orbit.hom(tri.m, tri.m), orbit.hom(tri.x, tri.m), tri.cat.hom(tri.m, tri.m)]
    assert all(space.dim for space in spaces)
    for space in spaces:
        for k, b in enumerate(space.basis):
            assert space.coords(b.payload) == {k: 1}


def test_from_coords_of_a_unit_vector_is_that_basis_map():
    # a coefficient 1 adds the basis map itself: its parts are not copied;
    # a dense coordinate sequence reads the same as its {index: nonzero} dict
    cat, p1, p2 = _projectives()
    x = Complex(cat, 0, [p1, p2], [cat.hom(p1, p2).basis[0]])
    for space in (cat.hom(p1, p1), cat.hom(p2, p1), ChainMapCategory(cat).hom(x, x)):
        for k, b in enumerate(space.basis):
            for vec in ({k: 1}, [int(i == k) for i in range(space.dim)]):
                got = space.from_coords(vec)
                assert (got.src, got.tgt) == (b.src, b.tgt)
                assert got.payload.keys() == b.payload.keys()
                assert all(got.payload[i] is part for i, part in b.payload.items())
            assert b.scale(cat.field.one) is b
        with pytest.raises(InputError):
            space.from_coords([0] * (space.dim + 1))


def _operands(cat, x, y, rng):
    """A Hom basis, random combinations and basis differences, which make
    composites whose contributions cancel."""
    space = cat.hom(x, y)
    out = list(space.basis) + [random_mor(cat, x, y, rng) for _ in range(3)]
    out += [b - c for b, c in zip(space.basis, space.basis[1:])] + [space.zero()]
    return out


def _check_tables(cat, objs, rng):
    # every entry is the coordinates of the composite made by _p_compose
    checked = 0
    for x in objs:
        for y in objs:
            for z in objs:
                space = cat.hom(x, z)
                fs, gs = _operands(cat, x, y, rng), _operands(cat, y, z, rng)
                for fl, gl in ((fs, gs), ([], gs), (fs, [])):
                    table = cat.composite_coords(fl, gl)
                    assert len(table) == len(fl)
                    for f, row in zip(fl, table):
                        assert len(row) == len(gl)
                        for g, got in zip(gl, row):
                            want = space.coords(cat._p_compose(x, y, z, f.payload, g.payload))
                            assert got == want and all(got.values())
                            checked += bool(got)
    assert checked  # some composites do not vanish


@pytest.mark.parametrize("char", [0, 2, 101])
def test_composite_tables_match_the_pairwise_composites(char):
    rng = random.Random(char)
    fx = cyclic_nakayama(2, 3, FieldSpec(char))
    cat = fx.algebra.modcat
    p1, p2, s1, s2 = fx.projectives["1"], fx.projectives["2"], fx.simples["1"], fx.simples["2"]
    # Hom(S1, S2) is zero, and two copies of S1 give blocks that cancel
    ss = cat.direct_sum([s1, s1]).obj
    split = cat.mor(s1, ss, {"1": [[1], [1]]})
    merge = cat.mor(ss, s1, {"1": [[1, -1]]})
    assert cat._p_compose(s1, ss, s1, split.payload, merge.payload) == {}
    assert cat.composite_coords([split], [merge]) == [[{}]]
    _check_tables(cat, [p1, p2, s1, s2, ss], rng)

    quotient = QuotientCategory(cat, lambda u, v: ideal_space(cat, SubcatSpec(cat, [p2]), u, v, "F"))
    assert any(quotient.ideal(u, v).dim for u in (p1, p2) for v in (p1, p2))
    _check_tables(quotient, [p1, p2, s1], rng)

    a = cat.hom(p1, p2).basis[0]
    r = next(e for e in cat.hom(p1, p1).basis if e.then(e).is_zero() and e.payload)
    cxs = [Complex(cat, 0, [p1, p2], [a]), Complex(cat, 0, [p1, p1], [r]), Complex(cat, 0, [p2], [])]
    _check_tables(ChainMapCategory(cat), cxs, rng)
    _check_tables(HomotopyCategory(cat), cxs, rng)
    qcxs = [Complex(quotient, 0, [p1, p2], [quotient.lift(a)]), Complex(quotient, 0, [p1], [])]
    _check_tables(ChainMapCategory(quotient), qcxs, rng)

    tri = a2_triangle(FieldSpec(char))
    kb = tri.cat
    objs = list(tri.triangle.objects) + [kb.sigma.obj(tri.x)]
    _check_tables(kb, objs, rng)
    orbit = OrbitCategory(kb, ShiftAuto(kb), AdmissibleSet([0, 1]))
    _check_tables(orbit, [tri.m, tri.x], rng)

    # a periodic degree set: degrees 1 and 1 compose into degree norm(2) = 0
    swap = QuiverTwistAuto(fx.algebra, {"1": "2", "2": "1"}, {"a1": "a2", "a2": "a1"}, order=2)
    periodic = OrbitCategory(cat, swap, AdmissibleSet(None, period=2))
    ones = [b for b in periodic.hom(p1, p1).basis if 1 in b.payload]
    lo, hi = periodic.degree_zero_block(p1, p1)
    assert any(lo <= j < hi for row in periodic.composite_coords(ones, ones) for v in row for j in v)
    _check_tables(periodic, [p1, p2, s1], rng)


def _drop_last_basis_element(cat, x, y):
    """Cache Hom(x, y) with its last basis element left out of the basis and
    of the chart; returns the full basis."""
    full = cat.hom(x, y).basis
    payloads, chart = cat._hom_space(x, y)
    cols = chart.transpose().sparse_rows
    del cols[len(payloads) - 1]
    lacking = Mat.from_columns(cat.field, cols, chart.rows)
    cat._hom_cache[(x.key, y.key)] = payloads[:-1], LinSolver(lacking)
    return full


@pytest.mark.parametrize("kind", ["module", "chain maps", "homotopy", "orbit"])
def test_a_composite_outside_a_lacking_hom_space_raises(kind):
    # negative control: a table checks every entry against the target's
    # chart, so a Hom space missing a basis element raises rather than
    # returning coordinates in the smaller span
    fx = cyclic_nakayama(2, 3, FieldSpec(0))
    cat = fx.algebra.modcat
    p1, p2 = fx.projectives["1"], fx.projectives["2"]
    x = p1
    if kind in ("chain maps", "homotopy"):
        x = Complex(cat, 0, [p1, p2], [cat.hom(p1, p2).basis[0]])
        cat = ChainMapCategory(cat) if kind == "chain maps" else HomotopyCategory(cat)
    elif kind == "orbit":
        swap = QuiverTwistAuto(fx.algebra, {"1": "2", "2": "1"}, {"a1": "a2", "a2": "a1"}, order=2)
        cat = OrbitCategory(cat, swap, AdmissibleSet(None, period=2))
    full = _drop_last_basis_element(cat, x, x)
    assert len(full) > cat.hom(x, x).dim
    with pytest.raises(InternalConsistencyError, match="outside its computed Hom space"):
        cat.composite_coords([cat.identity(x)], full)
    with pytest.raises(InternalConsistencyError, match="outside its computed Hom space"):
        cat.composite_coords(full, [cat.identity(x)])


# -- flat vectors ------------------------------------------------------------


def _dense(vec, n):
    """A {index: value} vector written out with its zeros."""
    out = [0] * n
    for i, c in vec.items():
        out[i] = c
    return out


def _nonzeros(field, vec):
    """The {index: nonzero} dict of a dense vector, under the value rules:
    an integral rational as an int."""
    return {k: field.coerce(c) for k, c in enumerate(vec) if c}


def _dense_flat(kind, cat, x, y, fp):
    """The flat vector of the payload fp with its zeros written out, by the
    layout each category's chart uses: slot blocks row by row, base
    coordinates, or the coordinates of the parts in order."""

    def parts(spaces):
        vecs = [(h.coords(fp[key].payload) if key in fp else {}, h.dim) for key, h in spaces]
        return [c for vec, n in vecs for c in _dense(vec, n)]

    if kind == "module":
        out = []
        for s in x.slots:
            blk = fp.get(s, Mat.zeros(cat.field, y.dims[s], x.dims[s]))
            out += [c for row in blk.tolist() for c in row]
        return out
    if kind == "quotient":
        return _dense(cat.base.hom(x, y).coords(fp), cat.base.hom(x, y).dim)
    if kind == "orbit":
        return parts(cat._graded_spaces(x, y))
    return parts(cat.hom_complex(x, y).block(0))  # chain maps, homotopy classes


def _dense_rref(field, rows, cols):
    """Reference: textbook dense Gauss-Jordan; the nonzero reduced rows and
    their pivot columns."""
    rows, pivots = [list(row) for row in rows], []
    for c in range(cols):
        pr = next((i for i in range(len(pivots), len(rows)) if rows[i][c]), None)
        if pr is None:
            continue
        r = len(pivots)
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = field.inv(rows[r][c])
        rows[r] = [field.mul(inv, x) for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                q = rows[i][c]
                rows[i] = [field.sub(x, field.mul(q, y)) for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
    return rows[: len(pivots)], pivots


def _dense_chart(kind, cat, x, y):
    """The chart of Hom(x, y) rebuilt densely: the flat vectors of its basis,
    then the generators it divides by (an ideal's basis in base coordinates,
    the null-homotopic maps of a homotopy category)."""
    space = cat.hom(x, y)
    columns = [_dense_flat(kind, cat, x, y, b.payload) for b in space.basis]
    if kind == "quotient":
        gens = cat.ideal(x, y)
    elif isinstance(cat, HomotopyCategory):
        gens = cat.hom_complex(x, y).boundaries(0)
    else:
        return columns
    return columns + [_dense(v, gens.ambient) for v in gens.basis]


def _dense_solve(field, columns, b):
    """Reference: the unique c with sum of c_k columns[k] = b, the columns
    being independent, by dense Gauss-Jordan on [columns | b]."""
    augmented = [[col[i] for col in columns] + [b[i]] for i in range(len(b))]
    red, pivots = _dense_rref(field, augmented, len(columns) + 1)
    assert pivots == list(range(len(columns))), "not in the span of the chart"
    return [row[-1] for row in red]


def _flat_setups(field):
    """(kind, category, objects) covering every _p_flatten hook: modules,
    quotients by a zero and by a nonzero ideal, chain maps, homotopy
    classes, KbProjCat and two orbit categories."""
    fx = cyclic_nakayama(2, 3, field)
    cat = fx.algebra.modcat
    p1, p2, s1 = fx.projectives["1"], fx.projectives["2"], fx.simples["1"]
    spec = SubcatSpec(cat, [p2])
    by_zero = QuotientCategory(cat, lambda u, v: Subspace.zero(field, cat.hom(u, v).dim))
    by_f = QuotientCategory(cat, lambda u, v: ideal_space(cat, spec, u, v, "F"))
    a = cat.hom(p1, p2).basis[0]
    r = next(e for e in cat.hom(p1, p1).basis if e.then(e).is_zero() and e.payload)
    cxs = [Complex(cat, 0, [p1, p2], [a]), Complex(cat, 0, [p1, p1], [r]), Complex(cat, 0, [p2], [])]
    tri = a2_triangle(field)
    kb_objs = list(tri.triangle.objects) + [tri.cat.sigma.obj(tri.x)]
    shift_orbit = OrbitCategory(tri.cat, ShiftAuto(tri.cat), AdmissibleSet([0, 1]))
    # the rotation of the 2-cycle: Hom(P1, P1) is nonzero in both degrees
    rotation = QuiverTwistAuto(fx.algebra, {"1": "2", "2": "1"}, {"a1": "a2", "a2": "a1"}, order=2)
    rotation_orbit = OrbitCategory(cat, rotation, AdmissibleSet([0, 1]))
    return [
        ("module", cat, [p1, p2, s1, cat.direct_sum([p1, s1]).obj]),
        ("quotient", by_zero, [p1, p2, s1]),
        ("quotient", by_f, [p1, p2, s1]),
        ("chain", ChainMapCategory(cat), cxs),
        ("chain", HomotopyCategory(cat), cxs),
        ("chain", tri.cat, kb_objs),
        ("orbit", shift_orbit, [tri.m, tri.x, tri.triangle.objects[-1]]),
        ("orbit", rotation_orbit, [p1, p2, s1]),
    ]


def _is_sparse(field, vec):
    """A {index: nonzero} dict under the value rules: no zero stored, a
    GF(p) value in [0, p), an integral rational an int."""
    return type(vec) is dict and all(
        c and (type(c) is int or not field.char and type(c) is Fraction and c.denominator != 1)
        and (not field.char or 0 < c < field.char)
        for c in vec.values()
    )


@pytest.mark.parametrize("char", [0, 2, 101])
def test_flat_vectors_are_the_nonzeros_of_the_dense_ones(char):
    # each _p_flatten hook returns a {flat index: nonzero} dict, the dense
    # flat vector at its nonzeros; the chart's solution, the coordinates,
    # every composite_coords entry and every Subspace basis row are the
    # nonzeros of the same vectors solved or reduced densely
    field = FieldSpec(char)
    rng = random.Random(2300 + char)
    setups = _flat_setups(field)
    by_f, objs = setups[2][1:]
    assert any(by_f.ideal(u, v).dim for u in objs for v in objs)
    flattened, generators, composites, spans = set(), 0, 0, 0
    for n, (kind, cat, objs) in enumerate(setups):
        for x, y in itertools.product(objs, repeat=2):
            space = cat.hom(x, y)
            chart = _dense_chart(kind, cat, x, y)
            generators += len(chart) > space.dim
            vecs = [[int(i == k) for i in range(space.dim)] for k in range(space.dim)]
            vecs += [[random_element(field, rng) for _ in range(space.dim)] for _ in range(4)]
            coords = []
            for v in vecs:
                f = space.from_coords(_nonzeros(field, v))
                coords.append(space.coords(f.payload))
                assert _is_sparse(field, coords[-1]) and coords[-1] == _nonzeros(field, v)
                if not f.payload:
                    continue
                flat = cat._p_flatten(x, y, f.payload)
                dense = _dense_flat(kind, cat, x, y, f.payload)
                assert _is_sparse(field, flat) and flat == _nonzeros(field, dense)
                sol = space._solver.solve(flat)
                want = _dense_solve(field, chart, dense)
                assert _is_sparse(field, sol) and sol == _nonzeros(field, want)
                flattened.add(n)
            sub = Subspace.from_vectors(field, space.dim, coords)
            ref, _ = _dense_rref(field, vecs, space.dim)
            assert all(_is_sparse(field, row) for row in sub.basis)
            assert list(sub.basis) == [_nonzeros(field, row) for row in ref]
            spans += sub.dim > 1
        for x, y, z in itertools.product(objs, repeat=3):
            fs, gs = cat.hom(x, y).basis, cat.hom(y, z).basis
            fs = fs + [random_mor(cat, x, y, rng) for _ in fs[:1]]
            chart = _dense_chart(kind, cat, x, z)
            for f, row in zip(fs, cat.composite_coords(fs, gs)):
                for g, got in zip(gs, row):
                    dense = _dense_flat(kind, cat, x, z, f.then(g).payload)
                    want = _dense_solve(field, chart, dense)[: cat.hom(x, z).dim]
                    assert _is_sparse(field, got) and got == _nonzeros(field, want)
                    composites += bool(got)
    assert len(flattened) == len(setups)  # every category flattened a nonzero map
    assert generators and composites and spans


@pytest.mark.parametrize("char", [0, 2, 101])
def test_slot_maps_that_do_not_intertwine_have_no_coordinates(char, monkeypatch):
    # every one-entry slot map of P1 over k[x]/(x^2): coords raises exactly
    # when the map breaks the square of x, after one solve whose check rows
    # catch it; the zero map is answered with zeros and no solve
    solves = []
    solve = LinSolver.solve
    monkeypatch.setattr(LinSolver, "solve", lambda self, b: solves.append(b) or solve(self, b))
    fx = kxx(FieldSpec(char))
    cat, p = fx.algebra.modcat, fx.projectives["1"]
    x, end = p.mats["x"], cat.hom(p, p)
    outside = 0
    for i, j in itertools.product(range(2), repeat=2):
        blk = Mat(cat.field, [[int((r, c) == (i, j)) for c in range(2)] for r in range(2)])
        del solves[:]
        if x * blk == blk * x:
            assert end.from_coords(end.coords({"1": blk})).payload["1"] == blk
        else:
            with pytest.raises(InternalConsistencyError):
                end.coords({"1": blk})
            outside += 1
        assert solves == [{2 * i + j: 1}]
    assert outside == 3  # only the entry below the diagonal, x itself, commutes
    del solves[:]
    assert end.coords({}) == {} and solves == []


def test_module_category_is_not_owned_by_its_algebra(monkeypatch):
    # a map or complex holds its category, so every read of modcat while one
    # lives returns that category with its caches; once none lives, nothing
    # holds the category and a read builds a fresh one
    fx = cyclic_nakayama(2, 3)
    a, p1, p2 = fx.algebra, fx.projectives["1"], fx.projectives["2"]
    f = a.modcat.hom(p2, p1).basis[0]
    built, hom_space = [], type(f.cat)._hom_space
    monkeypatch.setattr(type(f.cat), "_hom_space", lambda c, x, y: built.append(x) or hom_space(c, x, y))
    assert a.modcat is f.cat and a.modcat.hom(p2, p1).payloads is a.modcat.hom(p2, p1).payloads
    assert a.modcat.hom(p1, p1).dim and a.modcat.hom(p1, p1).dim and built == [p1]
    g = a.modcat.hom(p1, p1).basis[-1]  # from a second read: f.then(g) composes
    assert f.then(g).cat is f.cat is g.cat
    q = Complex(a.modcat, 0, [p2, p1], [f])
    ref = weakref.ref(f.cat)
    del f, g
    assert a.modcat is q.cat is ref()
    del q
    assert ref() is None
    assert a.modcat.hom(p2, p1).dim == 1 and built == [p1, p2]


def test_the_shift_is_owned_by_its_category_and_holds_only_its_power_cache():
    # every read of sigma, and every ShiftAuto of the category, shares one
    # power cache; a shifted map lives where the map it shifts does, so the
    # shift does not hold the category and a dropped category is freed
    tri = a2_triangle()
    cat, x = tri.cat, tri.x
    assert cat.sigma is cat.sigma and cat.sigma.obj(x, 2) is ShiftAuto(cat).obj(x, 2)
    assert cat.sigma.obj(cat.sigma.obj(x), 1) is cat.sigma.obj(x, 2)
    f = cat.identity(x)
    assert cat.sigma.mor(f, 2).cat is cat and cat.sigma.mor(f, 2).src is ShiftAuto(cat).obj(x, 2)
    ref = weakref.ref(cat)
    del tri, cat, f
    assert ref() is None
