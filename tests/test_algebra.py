"""Path algebras, quiver representations and module-category operations."""

import itertools
import random

import pytest

from deqcert.algebra import (
    Algebra,
    ModuleCategory,
    ModuleRep,
    Quiver,
    image_module,
    intertwiner_kernel,
    is_isomorphism,
    iso_from_projective,
    kernel_module,
    nakayama_projective,
    path_algebra,
    projective,
    radical,
    radical_layers,
    regular_module,
    simple_module,
    submodule,
    top,
)
from deqcert.catideal import RingPresentation
from deqcert.category import Mor
from deqcert.complexes import ChainMapCategory, Complex
from deqcert.errors import InputError, InternalConsistencyError, NonFiniteDimensionalError
from deqcert.exactla import FieldSpec, LinSolver, Mat, Subspace, kernel
from deqcert.presets import a2, a3, cyclic_nakayama, kxx, nakayama4

from draws import random_mor
from oracles import equal


def count_paths(quiver, relations, max_len=30):
    """Brute-force enumeration of paths avoiding relation words."""
    words = {tuple(r) for r in relations}

    def banned(seq):
        for r in words:
            k = len(r)
            if any(tuple(seq[i : i + k]) == r for i in range(len(seq) - k + 1)):
                return True
        return False

    by_target = {}
    for name, s, t in quiver.arrows:
        by_target.setdefault(s, []).append((name, t))
    total = len(quiver.vertices)  # trivial paths
    frontier = [((), v, v) for v in quiver.vertices]
    for _ in range(max_len):
        nxt = []
        for seq, src, cur in frontier:
            for name, t in by_target.get(cur, ()):  # extend on the right
                seq2 = seq + (name,)
                if not banned(seq2):
                    nxt.append((seq2, src, t))
        total += len(nxt)
        frontier = nxt
        if not frontier:
            break
    return total


def test_path_algebra_dimension_matches_path_count():
    for fx, rels in (
        (a2(), []),
        (a3(), []),
        (kxx(), [["x", "x"]]),
    ):
        quiver = fx.algebra.presentation.quiver
        assert fx.algebra.dim == count_paths(quiver, rels)


def test_cyclic_nakayama_dimensions():
    # n vertices, paths of length < l survive: dim = n * l
    for n, l in ((2, 2), (3, 2), (4, 5)):
        fx = cyclic_nakayama(n, l)
        assert fx.algebra.dim == n * l
        quiver = fx.algebra.presentation.quiver
        rels = [r.arrows if hasattr(r, "arrows") else r for r in []]
        assert fx.algebra.dim == count_paths(
            quiver, [[f"a{((i + j) % n) + 1}" for j in range(l)] for i in range(n)]
        )


def test_loop_without_relations_is_infinite_dimensional():
    q = Quiver(["1"], [("x", "1", "1")])
    with pytest.raises(NonFiniteDimensionalError):
        path_algebra(q, [])


def test_algebra_axioms_hold_on_presets():
    for fx in (a2(), a3(), kxx(), cyclic_nakayama(3, 2)):
        alg = fx.algebra
        # spot-check associativity and unitality on basis vectors
        one, unit = alg.field.one, {i: x for i, x in enumerate(alg.unit) if x}
        rng = random.Random(4)
        for _ in range(20):
            i, j, k = (rng.randrange(alg.dim) for _ in range(3))
            u, v, w = ({t: one} for t in (i, j, k))
            assert alg.mul(alg.mul(u, v), w) == alg.mul(u, alg.mul(v, w))
        for i in range(alg.dim):
            v = {i: one}
            assert alg.mul(unit, v) == v
            assert alg.mul(v, unit) == v


def _dense_constants(n, table):
    """table[i][j][k] for every triple, zeros written out."""
    dense = [[[0] * n for _ in range(n)] for _ in range(n)]
    for (i, j), vec in table.items():
        for k, c in vec.items():
            dense[i][j][k] = c
    return dense


def _first_nonassociative_triple(field, table):
    """The first (i, j, k) in row-major order with (e_i e_j) e_k != e_i (e_j e_k),
    from dense sums over every structure constant."""
    n, p = len(table), field.char
    for i, j, k in itertools.product(range(n), repeat=3):
        left = [sum(table[i][j][a] * table[a][k][b] for a in range(n)) for b in range(n)]
        right = [sum(table[j][k][a] * table[i][a][b] for a in range(n)) for b in range(n)]
        if [x % p for x in left] != [x % p for x in right] if p else left != right:
            return i, j, k
    return None


# (fixture, x, y, z, ij_zero): e_x·e_y gains the term e_z, the unit
# untouched; with ij_zero the first failing triple (i, j, k) has e_i·e_j = 0
# and e_j·e_k != 0, so a walk over the stored pairs (i, j) alone misses it
PERTURBATIONS = [
    (a3, "a", "b", "a", False),  # a·b = a + ab
    (lambda field: cyclic_nakayama(3, 2, field), "a3", "a1", "a2", True),  # fails at (e2, a3, a1)
]


@pytest.mark.parametrize("char", [0, 2, 3])
def test_algebra_rejects_a_nonassociative_table_at_the_first_triple(char):
    for make, x, y, z, ij_zero in PERTURBATIONS:
        alg = make(FieldSpec(char)).algebra
        names = alg.basis_names
        assert _first_nonassociative_triple(alg.field, _dense_constants(alg.dim, alg.table)) is None
        x, y, z = (names.index(t) for t in (x, y, z))
        table = dict(alg.table)
        table[x, y] = {**table.get((x, y), {}), z: alg.field.one}
        first = _first_nonassociative_triple(alg.field, _dense_constants(alg.dim, table))
        assert first is not None
        i, j, k = first
        assert ((i, j) not in table and (j, k) in table) == ij_zero
        with pytest.raises(InputError, match=r"not associative at \(%d,%d,%d\)" % first):
            Algebra(alg.field, names, table, alg.unit)


def test_algebra_rejects_a_wrong_unit():
    alg = a3().algebra
    e3 = alg.basis_names.index("e3")
    for unit in ([x if i != e3 else 0 for i, x in enumerate(alg.unit)], [2 * x for x in alg.unit]):
        with pytest.raises(InputError, match="unit is not a two-sided identity"):
            Algebra(alg.field, alg.basis_names, alg.table, unit)
    Algebra(alg.field, alg.basis_names, alg.table, alg.unit)  # the true unit passes


def test_algebra_rejects_a_table_or_unit_that_does_not_match_the_basis():
    one = {(0, 0): {0: 1}}
    Algebra(FieldSpec(0), ["a"], one, [1])  # k[a] with a·a = a passes
    cases = [
        (["a", "b"], {(0, 0): {0: 1}, (1, 1): {1: 1}}, [1, 0, 0], "unit has 3 entries"),
        (["a"], one, [], "unit has 0 entries"),
        (["a"], {**one, (0, 1): {0: 1}}, [1], "outside a basis of 1"),  # j out of range
        (["a"], {**one, (-1, 0): {0: 1}}, [1], "outside a basis of 1"),  # i out of range
        (["a"], {(0, 0): {0: 1, 1: 1}}, [1], "outside a basis of 1"),  # k out of range
    ]
    for names, table, unit, message in cases:
        with pytest.raises(InputError, match=message):
            Algebra(FieldSpec(0), names, table, unit)
    # so does a ring presentation that does not match its labels
    with pytest.raises(InputError, match="outside"):
        RingPresentation(FieldSpec(0), ["a"], {**one, (0, 0): {2: 1}}, [1]).to_algebra()


def test_projective_and_simple_dimensions_a3():
    fx = a3()
    dims = {v: sum(projective(fx.algebra, v).dims.values()) for v in "123"}
    assert dims == {"1": 3, "2": 2, "3": 1}
    for v in "123":
        s = simple_module(fx.algebra, v)
        assert sum(s.dims.values()) == 1 and s.dims.get(v, 0) == 1


def test_hom_dimensions_a2_by_hand():
    fx = a2()
    cat = fx.algebra.modcat
    p1, p2 = fx.projectives["1"], fx.projectives["2"]
    s1, s2 = fx.simples["1"], fx.simples["2"]
    expected = {
        (p1, p1): 1,
        (p2, p2): 1,
        (p2, p1): 1,
        (p1, p2): 0,
        (p1, s1): 1,
        (s1, p1): 0,
        (p1, s2): 0,
        (s2, p1): 1,  # s2 is the projective at vertex 2
    }
    for (x, y), d in expected.items():
        assert cat.hom(x, y).dim == d, (x.name, y.name)


def test_hom_module_against_projective_yoneda():
    # Hom(P_v, M) has dimension dim M_v
    fx = cyclic_nakayama(4, 5)
    cat = fx.algebra.modcat
    for v in ("1", "2", "3", "4"):
        p = fx.projectives[v]
        for w in ("1", "2", "3", "4"):
            m = fx.projectives[w]
            assert cat.hom(p, m).dim == m.dims.get(v, 0)


def test_composition_bilinear_and_associative():
    fx = a3()
    cat = fx.algebra.modcat
    rng = random.Random(5)
    objs = list(fx.projectives.values()) + list(fx.simples.values())

    for _ in range(20):
        x, y, z, w = (rng.choice(objs) for _ in range(4))
        f = random_mor(cat, x, y, rng)
        g = random_mor(cat, y, z, rng)
        h = random_mor(cat, z, w, rng)
        assert equal(f.then(g).then(h), f.then(g.then(h)))
        assert equal((f + f).then(g), f.then(g).scale(2))
        assert equal(cat.identity(x).then(f), f)
        assert equal(f.then(cat.identity(y)), f)


def test_kernel_image_of_arrow_map():
    fx = a2()
    cat = fx.algebra.modcat
    p1, p2 = fx.projectives["1"], fx.projectives["2"]
    f = cat.hom(p2, p1).basis[0]
    ker, incl = kernel_module(f)
    img, emb = image_module(f)
    assert sum(ker.dims.values()) == 0
    assert sum(img.dims.values()) == 1
    assert incl.then(f).is_zero()


def test_coords_rejects_blocks_that_do_not_intertwine_an_arrow():
    # identity at vertex 1 and zero at vertex 2 break the square of a: P1 -> P1
    fx = a2()
    cat = fx.algebra.modcat
    p1 = fx.projectives["1"]
    field = fx.algebra.field
    end = cat.hom(p1, p1)
    assert end.coords({"1": Mat(field, [[1]]), "2": Mat(field, [[1]])}) == {0: 1}
    with pytest.raises(InternalConsistencyError):
        end.coords({"1": Mat(field, [[1]]), "2": Mat(field, [[0]])})


def test_chain_map_coords_reject_a_degreewise_map_that_is_not_a_chain_map():
    # identity on P2 and zero on P1 break the square of d: P2 -> P1
    fx = a2()
    cat = fx.algebra.modcat
    p1, p2 = fx.projectives["1"], fx.projectives["2"]
    x = Complex(cat, -1, [p2, p1], [cat.hom(p2, p1).basis[0]])
    end = ChainMapCategory(cat).hom(x, x)
    assert end.coords({-1: cat.identity(p2), 0: cat.identity(p1)}) == {0: 1}
    with pytest.raises(InternalConsistencyError):
        end.coords({-1: cat.identity(p2)})


def test_building_a_module_hom_space_eliminates_once(monkeypatch):
    # the intertwiner RREF gives both the basis and the chart's solver
    from deqcert import exactla

    fx = cyclic_nakayama(2, 3)
    cat = ModuleCategory(fx.algebra)
    calls, rref_rows = [], exactla._rref_rows
    monkeypatch.setattr(exactla, "_rref_rows", lambda *args: calls.append(1) or rref_rows(*args))
    space = cat.hom(fx.projectives["1"], fx.projectives["1"])
    assert len(calls) == 1 and space.dim == 2
    for k, b in enumerate(space.basis):
        assert space.coords(b.payload) == {k: 1}
    assert len(calls) == 1


def _payloads_from_every_slot(cat, x, y):
    """The Hom basis payloads as they were built before blocks were made
    only for the slots a kernel vector touches: a row dict for every row of
    every slot, then the zero blocks dropped."""
    arrows = [(s, t, y.mats[a], x.mats[a]) for a, s, t in cat.algebra.presentation.quiver.arrows]
    cells = [(s, i, j) for s in x.slots for i in range(y.dims[s]) for j in range(x.dims[s])]
    payloads = []
    for vec in intertwiner_kernel(cat.field, x.slots, x.dims, y.dims, arrows):
        rows = {s: [{} for _ in range(y.dims[s])] for s in x.slots}
        for k, v in vec.items():
            s, i, j = cells[k]
            rows[s][i][j] = v
        blocks = {s: Mat._of(cat.field, r, y.dims[s], x.dims[s]) for s, r in rows.items()}
        payloads.append({s: m for s, m in blocks.items() if not m.is_zero()})
    return payloads


def test_hom_basis_payloads_from_kernel_nonzeros_match_every_slot_construction():
    # the same blocks, in slot order, and no zero block, on every ordered
    # pair of the named modules (projectives, simples, the regular module,
    # and nakayama4's P and Y)
    partial = 0
    for fx in (a2(), a3(), kxx(), nakayama4(), cyclic_nakayama(3, 2)):
        cat = fx.algebra.modcat
        named = [*fx.projectives.values(), *fx.simples.values(), regular_module(fx.algebra).obj]
        named += [getattr(fx, name) for name in ("p", "y") if hasattr(fx, name)]
        for x, y in itertools.product(named, repeat=2):
            got = [b.payload for b in cat.hom(x, y).basis]
            want = _payloads_from_every_slot(cat, x, y)
            assert got == want, (x, y)
            for g, w in zip(got, want):
                assert list(g) == list(w) and not any(m.is_zero() for m in g.values())
                partial += len(g) < len(x.slots)
    assert partial  # some basis maps leave out a slot


def socle(m: ModuleRep) -> tuple[ModuleRep, Mor]:
    """Joint kernel of all arrow actions, with its inclusion."""
    field = m.algebra.field
    spaces = {s: Subspace.full(field, m.dims[s]) for s in m.slots}
    for name, s, t in m.algebra.presentation.quiver.arrows:
        spaces[s] = spaces[s].intersect(kernel(m.mats[name]))
    return submodule(m, spaces)


def test_sub_quotient_radical_socle_top():
    fx = cyclic_nakayama(4, 5)
    p1 = fx.projectives["1"]
    rad, _ = radical(p1)
    soc, _ = socle(p1)
    tp, _ = top(p1)
    assert sum(rad.dims.values()) == 4
    assert sum(tp.dims.values()) == 1 and tp.dims.get("1") == 1
    # P1 has series 1/2/3/4/1, socle at vertex 1
    assert sum(soc.dims.values()) == 1 and soc.dims.get("1") == 1
    layers = radical_layers(p1)
    assert [sorted(layer) for layer in layers] == [["1"], ["2"], ["3"], ["4"], ["1"]]


def test_submodule_inclusion_composes_to_zero_with_quotient():
    fx = a3()
    p1 = fx.projectives["1"]
    rad, incl = radical(p1)
    tp, proj = top(p1)
    assert incl.then(proj).is_zero()
    assert sum(rad.dims.values()) + sum(tp.dims.values()) == sum(p1.dims.values())


def invert(f: Mor) -> Mor:
    """The inverse of the module isomorphism f, solved slot by slot."""
    if not is_isomorphism(f):
        raise InputError("morphism is not invertible")
    cat = f.cat
    blocks = {}
    for s in f.src.slots:
        n = f.src.dims[s]
        block = f.payload.get(s) or Mat.zeros(cat.field, f.tgt.dims[s], n)
        solver = LinSolver(block)
        units = Mat.identity(cat.field, n).sparse_rows
        blocks[s] = Mat.from_columns(cat.field, [solver.solve(e) for e in units], n)
    return Mor(cat, f.tgt, f.src, blocks)


def test_iso_from_projective_and_invert():
    fx = a2()
    cat = fx.algebra.modcat
    p1 = fx.projectives["1"]
    mats = {a: Mat(m.field, m.tolist(), m.rows, m.cols) for a, m in p1.mats.items()}
    copy = ModuleRep.quiver_rep(fx.algebra, dict(p1.dims), mats, name="copy")
    iso = iso_from_projective(p1, copy)
    assert is_isomorphism(iso)
    assert equal(iso.then(invert(iso)), cat.identity(p1))
    assert iso_from_projective(p1, fx.simples["1"]) is None
    # the argument needs an indecomposable projective first
    with pytest.raises(InputError, match="indecomposable projective"):
        iso_from_projective(fx.simples["1"], p1)
    with pytest.raises(InputError, match="indecomposable projective"):
        iso_from_projective(cat.direct_sum([p1, p1]).obj, p1)


def test_iso_from_projective_finds_every_conjugate():
    # P1 over k[x]/(x^2) with its arrow matrix conjugated by each invertible
    # 2 x 2 matrix over GF(3): always isomorphic to P1, and found so
    fx = kxx(FieldSpec(3))
    field = fx.algebra.field
    p1 = fx.projectives["1"]
    found = 0
    for a, b, c, d in itertools.product(range(3), repeat=4):
        det = (a * d - b * c) % 3
        if not det:
            continue
        s = Mat(field, [[a, b], [c, d]])
        s_inv = Mat(field, [[d, -b], [-c, a]]) * Mat(field, [[det, 0], [0, det]])  # det^-1 = det
        conj = ModuleRep.quiver_rep(fx.algebra, {"1": 2}, {"x": s * p1.mats["x"] * s_inv})
        assert is_isomorphism(iso_from_projective(p1, conj))
        found += 1
    assert found == 48


def test_regular_module_is_sum_of_projectives():
    fx = a3()
    data = regular_module(fx.algebra)
    assert sum(data.obj.dims.values()) == fx.algebra.dim


def test_nakayama_transform_of_projectives():
    # linear A2: the transform of P1 is the injective at 1, i.e. S1, which is
    # not projective; the transform of P2 is the projective-injective P1
    fx = a2()
    n1 = nakayama_projective(fx.algebra, fx.projectives["1"])
    assert {s: n1.dims[s] for s in n1.slots} == {"1": 1, "2": 0}
    assert all(iso_from_projective(p, n1) is None for p in fx.projectives.values())
    n2 = nakayama_projective(fx.algebra, fx.projectives["2"])
    assert is_isomorphism(iso_from_projective(fx.projectives["1"], n2))
    # self-injective cyclic algebra: projectives are permuted
    cyc = cyclic_nakayama(4, 5)
    n = nakayama_projective(cyc.algebra, cyc.projectives["1"])
    hit = [v for v, pv in cyc.projectives.items() if iso_from_projective(pv, n) is not None]
    assert len(hit) == 1


def test_invalid_representation_rejected():
    fx = kxx()
    field = fx.algebra.field
    with pytest.raises(InputError):
        # x^2 = 0 fails for this action matrix
        ModuleRep.quiver_rep(fx.algebra, {"1": 1}, {"x": Mat(field, [[1]])})


# -- payloads with absent slots ----------------------------------------------


def _dense(f):
    """f rebuilt with an explicit block, zeros included, at every slot."""
    return f.cat.mor(f.src, f.tgt, dict(f.payload))


def test_sparse_and_dense_payloads_agree():
    # a Hom basis element or a zero map stores only the slots where it can
    # be nonzero; the same map with explicit zero blocks must compose, add,
    # scale and take coordinates the same way, and a composite keeps only
    # the blocks that do not vanish
    fx = cyclic_nakayama(3, 2)
    cat = fx.algebra.modcat
    objs = list(fx.projectives.values()) + list(fx.simples.values())
    absent = vanished = 0
    for x, y, z in itertools.product(objs, repeat=3):
        fs = cat.hom(x, y).basis + [cat.zero_mor(x, y)]
        gs = cat.hom(y, z).basis + [cat.zero_mor(y, z)]
        for f in fs:
            df = _dense(f)
            assert set(df.payload) == set(x.slots)
            absent += len(f.payload) < len(x.slots)
            assert f.coords() == df.coords()
            assert (f + df).coords() == (df + df).coords() == f.scale(2).coords()
            assert f.scale(3).coords() == df.scale(3).coords()
            for g in gs:
                dense = df.then(_dense(g))
                want = dense.coords()
                assert f.then(g).coords() == f.then(_dense(g)).coords() == want
                assert df.then(g).coords() == want
                for h in (f.then(g), dense):
                    vanished += len(h.payload) < len(x.slots)
                    assert not any(blk.is_zero() for blk in h.payload.values())
    assert absent and vanished
    assert cat.zero_mor(objs[0], objs[1]).payload == {}


def test_module_operations_read_absent_slots_as_zero():
    fx = a2()
    cat = fx.algebra.modcat
    p1, p2, s1 = fx.projectives["1"], fx.projectives["2"], fx.simples["1"]
    f = cat.hom(p2, p1).basis[0]  # P2 is zero at vertex 1, so f has no block there
    assert set(f.payload) == {"2"}
    for op in (kernel_module, image_module):
        sparse, dense = op(f)[0], op(_dense(f))[0]
        assert sparse.dims == dense.dims
    ker, incl = kernel_module(cat.zero_mor(p1, p2))
    assert ker.dims == p1.dims and is_isomorphism(incl)
    img, _ = image_module(cat.zero_mor(p1, p2))
    assert img.total_dim == 0
    # S1 is zero at vertex 2: its identity has no block there, yet inverts
    one = cat.hom(s1, s1).from_coords([1])
    assert set(one.payload) == {"1"} and is_isomorphism(one)
    assert equal(invert(one).then(one), cat.identity(s1))
    assert not is_isomorphism(cat.zero_mor(p1, p1))
    with pytest.raises(InputError):
        invert(cat.zero_mor(s1, s1))
