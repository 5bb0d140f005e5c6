"""The split-sequence equivalence engine for module categories."""

import gc
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from deqcert import angulate, derivedeq
from deqcert.algebra import (
    ModuleRep,
    dense_table,
    iso_from_projective,
    nakayama_projective,
    regular_module,
)
from deqcert.angulate import verify_theorem2
from deqcert.category import Mor
from deqcert.catideal import (
    RingPresentation,
    SubcatSpec,
    approximation_witness,
    end_ring,
    ideal_space,
    minimal_right_approximation,
    right_approximation,
)
from deqcert.cli import _certificate_report
from deqcert.complexes import HomComplex, complex_in_quotient
from deqcert.derivedeq import nu_stable_sequence, verify_theorem1
from deqcert.errors import HypothesisError
from deqcert.exactla import QQ, FieldSpec, LinSolver, Mat, Subspace, _sparse, kernel
from deqcert.orbit import AdmissibleSet, OrbitCategory, ShiftAuto, corollary_orbit_verify
from deqcert.presets import (
    a2,
    a2_triangle,
    a3,
    cyclic_nakayama,
    d_split_sequence,
    kxx,
    nakayama4,
    worked_example_scenario,
)

from draws import random_element
from oracles import equal


def test_split_sequence_certificate_small():
    fx = cyclic_nakayama(2, 2)
    q, m = d_split_sequence(fx.algebra, fx.simples["1"])
    cert = verify_theorem1(q, m)
    assert cert.passed, cert.flags
    assert cert.flags["theta_surjective"]
    assert cert.flags["phi_surjective"]
    assert cert.flags["kernels_equal"]
    assert cert.flags["multiplicative"] and cert.flags["unital"]
    # the two quotient rings are derived equivalent, not isomorphic, so we
    # only ask that both presentations are well formed
    assert len(cert.ring_left.labels) >= 1
    assert len(cert.ring_right.labels) >= 1


def test_certificate_ring_tables_are_rings():
    fx = cyclic_nakayama(2, 2)
    q, m = d_split_sequence(fx.algebra, fx.simples["2"])
    cert = verify_theorem1(q, m)
    assert cert.passed
    cert.ring_left.to_algebra()
    cert.ring_right.to_algebra()


def test_embedding_check_flag_presence():
    fx = cyclic_nakayama(2, 2)
    q, m = d_split_sequence(fx.algebra, fx.simples["1"])
    with_emb = verify_theorem1(q, m, embedding_check=True)
    without = verify_theorem1(q, m, embedding_check=False)
    assert "embedding_dims" in with_emb.flags
    assert "embedding_dims" not in without.flags
    assert with_emb.passed and without.passed


EMBEDDING_INSTANCES = {
    "kxx": kxx,
    "cyclic_nakayama(2,2)": lambda field: cyclic_nakayama(2, 2, field),
    "cyclic_nakayama(3,2)": lambda field: cyclic_nakayama(3, 2, field),
}


def _embedding_setup(name, char):
    """The tilting data of the split sequence ending in S1, and X."""
    fx = EMBEDDING_INSTANCES[name](FieldSpec(char))
    q, m = d_split_sequence(fx.algebra, fx.simples["1"])
    return derivedeq.build_tilting(q, m), q.obj(0)


@pytest.mark.parametrize("char", [0, 2])
@pytest.mark.parametrize("name", list(EMBEDDING_INSTANCES))
def test_embedding_check_fails_when_graded_by_x_alone(name, char):
    t, x = _embedding_setup(name, char)

    def flag(objs, ring=None):
        data = t.cat.direct_sum(objs)
        ring = ring or end_ring(t.qcat_left, data.obj)
        return derivedeq._full_embedding_dim_check(t, data, ring)

    assert flag([t.m, x]) is True
    # Hom(X, -) is not full on the terms of T
    assert flag([x]) is False
    # X has an add(M) copresentation, so Hom(M, -) alone still is
    assert flag([t.m]) is True
    # a ring that is not unital fails the guard before any Hom space
    ring = end_ring(t.qcat_left, t.cat.direct_sum([t.m, x]).obj)
    broken = RingPresentation(ring.field, ring.labels, ring.table, [0] * ring.dim)
    assert flag([t.m, x], broken) is False
    # ... and so does one whose unit or table does not match its basis
    short = RingPresentation(ring.field, ring.labels, ring.table, ring.unit[:-1])
    assert flag([t.m, x], short) is False
    wide = {**ring.table, (0, ring.dim): {0: ring.field.one}}
    assert flag([t.m, x], RingPresentation(ring.field, ring.labels, wide, ring.unit)) is False


def _dense_embedded_hom_dim(qcat, mx, u, v):
    """dim Hom_A(Hom(mx, u), Hom(mx, v)) over A = End(mx) in qcat, from one
    ungraded intertwiner system over the whole basis of A: the unknown F
    is a dim Hom(mx, v) x dim Hom(mx, u) matrix with A_v·F = F·A_u for
    every basis element, which acts by precomposition.  The kernel of the
    stacked system is cut down by one basis element at a time."""
    field = qcat.field
    ends = qcat.hom(mx, mx).basis

    def actions(w):
        space = qcat.hom(mx, w)
        return space.dim, [
            Mat.from_columns(
                field, [space.coords(e.then(h).payload) for h in space.basis], space.dim
            )
            for e in ends
        ]

    du, acts_u = actions(u)
    dv, acts_v = actions(v)
    n = dv * du  # F[r][c] is coordinate r * du + c
    kernel = Mat.identity(field, n)  # columns: a basis of the solutions so far
    for a, b in zip(acts_v, acts_u):
        # row r * du + c of this element's block: (A_v·F - F·A_u)[r][c]
        a, b = a.tolist(), b.tolist()
        rows = [[field.zero] * n for _ in range(n)]
        for r in range(dv):
            for c in range(du):
                row = rows[r * du + c]
                for k in range(dv):
                    row[k * du + c] = field.add(row[k * du + c], a[r][k])
                for l in range(du):
                    row[r * du + l] = field.sub(row[r * du + l], b[l][c])
        cut = (Mat(field, rows, n, n) * kernel).kernel_basis()
        kernel = kernel * Mat.from_columns(field, cut, kernel.cols)
    return kernel.cols


@pytest.mark.parametrize("char", [0, 2])
@pytest.mark.parametrize("name", list(EMBEDDING_INSTANCES))
def test_graded_embedding_dims_match_the_dense_system(name, char):
    t, x = _embedding_setup(name, char)
    qcat = t.qcat_left
    mx_sum = t.cat.direct_sum([t.m, x])
    terms = list(t.t_complex.objs)
    graded = derivedeq._embedded_hom_dims(qcat, mx_sum.summands, terms)
    dense = [[_dense_embedded_hom_dim(qcat, mx_sum.obj, u, v) for v in terms] for u in terms]
    assert graded == dense
    assert graded == [[qcat.hom(u, v).dim for v in terms] for u in terms]


def _nu_pipeline_setup():
    """The default nu-pipeline over nakayama4: 18 terms, 4 of them distinct."""
    fx = nakayama4()
    q = nu_stable_sequence(fx.p, fx.y)
    return derivedeq.build_tilting(q, fx.p), q.obj(0)


def _periodic_nakayama22_setup():
    """S1 over cyclic_nakayama(2, 2) resolved by P1 + P2 for three steps:
    the projective terms P1 and P2 repeat."""
    fx = cyclic_nakayama(2, 2)
    p = fx.algebra.modcat.direct_sum([fx.projectives["1"], fx.projectives["2"]]).obj
    q = nu_stable_sequence(p, fx.simples["1"], steps=3)
    return derivedeq.build_tilting(q, p), q.obj(0)


@pytest.mark.parametrize("setup", [_nu_pipeline_setup, _periodic_nakayama22_setup])
def test_embedding_dims_of_the_distinct_terms_match_the_full_term_list(setup, monkeypatch):
    t, x = setup()
    qcat = t.qcat_left
    mx_sum = t.cat.direct_sum([t.m, x])
    terms = list(t.t_complex.objs)
    distinct = list({u.key: u for u in terms}.values())
    assert len(distinct) < len(terms)
    full = derivedeq._embedded_hom_dims(qcat, mx_sum.summands, terms)
    dedup = derivedeq._embedded_hom_dims(qcat, mx_sum.summands, distinct)
    at = {u.key: i for i, u in enumerate(distinct)}
    assert full == [[dedup[at[u.key]][at[v.key]] for v in terms] for u in terms]
    # the check itself solves the distinct terms only, and passes
    seen, embedded = [], derivedeq._embedded_hom_dims

    def recording(qcat, summands, terms):
        seen.append([u.key for u in terms])
        return embedded(qcat, summands, terms)

    monkeypatch.setattr(derivedeq, "_embedded_hom_dims", recording)
    ring = end_ring(qcat, mx_sum.obj)
    assert derivedeq._full_embedding_dim_check(t, mx_sum, ring) is True
    assert seen == [list(at)]


def test_doubled_theta_fails_exactly_the_ring_map_flags(monkeypatch):
    # 2·theta over Q keeps surjectivity and the kernel, so only the ring-map
    # flags can see it; theta(f0·f0) != 0, so the first pair already fails
    fx = cyclic_nakayama(2, 2)
    q, m = d_split_sequence(fx.algebra, fx.simples["1"])
    theta = derivedeq.theta
    monkeypatch.setattr(derivedeq, "theta", lambda t, f: theta(t, f).scale(2))
    cert = verify_theorem1(q, m)
    assert {k for k, v in cert.flags.items() if not v} == {"multiplicative", "unital"}
    assert cert.data["multiplicative_witness"] == (0, 0, "theta")
    assert "multiplicative_witness" not in _certificate_report("verify-thm1", cert)


def test_zero_theta_fails_surjectivity_kernels_dimension_and_unit(monkeypatch):
    # 0·theta is still multiplicative, but it is onto nothing, its kernel is
    # all of End(T), and it misses the unit
    fx = cyclic_nakayama(2, 2)
    q, m = d_split_sequence(fx.algebra, fx.simples["1"])
    theta = derivedeq.theta
    monkeypatch.setattr(derivedeq, "theta", lambda t, f: theta(t, f).scale(0))
    cert = verify_theorem1(q, m)
    failed = {k for k, v in cert.flags.items() if not v}
    assert failed == {"theta_surjective", "kernels_equal", "dim_match", "unital"}
    assert cert.data["multiplicative_witness"] is None
    assert cert.data["kernel_dim"] == cert.data["end_cb_dim"]


def _thm1_nakayama22_s1(field):
    fx = cyclic_nakayama(2, 2, field)
    q, m = d_split_sequence(fx.algebra, fx.simples["1"])
    return verify_theorem1(q, m).passed


def _nu_stable_nakayama4():
    fx = nakayama4()
    return [o.total_dim for o in nu_stable_sequence(fx.p, fx.y, steps=2).objs] == [4, 5, 5, 5, 2]


GARBAGE_FREE = {
    "thm1-q": lambda: _thm1_nakayama22_s1(FieldSpec(0)),
    "thm1-gf2": lambda: _thm1_nakayama22_s1(FieldSpec(2)),
    "thm2-a2": lambda: _thm2_a2(FieldSpec(0)).passed,
    "orbit-a2": lambda: _orbit_a2(FieldSpec(0)).passed,
    "nu-stable": _nu_stable_nakayama4,
}


@pytest.mark.parametrize("verdict", GARBAGE_FREE.values(), ids=GARBAGE_FREE.keys())
def test_verdicts_leave_no_cyclic_garbage(verdict):
    # a category owns its caches, and nothing it caches holds it back, so
    # reference counting frees every category a verdict builds: a full
    # collection afterwards finds nothing unreachable
    gc.collect()
    gc.disable()
    try:
        assert verdict()
        found = gc.collect()
    finally:
        gc.enable()
    assert found == 0


def _compose(f, g):
    """Degreewise composite of two chain maps given by their components."""
    return {i: h.then(g[i]) for i, h in f.items() if i in g}


def _head(vec, n):
    """The entries of an {index: nonzero} vector at the indices below n."""
    return {k: c for k, c in vec.items() if k < n}


def _pairwise_ring_map_checks(t_complex, qcat_left, qcat_right, ym, mx, theta_of):
    """The per-pair definition of the ring-map flags, kept as an oracle for
    _certify without its categories of complexes or end_ring: compose the
    theta classes of each pair of basis chain maps directly, and for phi
    lift both homotopy classes to chain maps over the left quotient,
    compose them degreewise and project back.  Returns (multiplicative,
    unital, first failing pair or None)."""
    cat = t_complex.cat
    field = cat.field
    hom_t = HomComplex(cat, t_complex, t_complex)
    basis = [hom_t.maps_from_vec(0, v) for v in hom_t.cycles(0).basis]
    theta_classes = [theta_of(f) for f in basis]
    t_bar = complex_in_quotient(qcat_left, t_complex)
    hc = HomComplex(qcat_left, t_bar, t_bar)
    null = hc.boundaries(0)
    reps = hc.cycles(0).quotient_basis(null)
    rep_mat = Mat.from_columns(field, reps, hc.dim(0))
    classes = LinSolver(Mat.from_columns(field, reps + list(null.basis), hc.dim(0)))

    def phi_of(f):
        lifted = {i: qcat_left.lift(g) for i, g in f.items()}
        return _head(classes.solve(hc.vec_from_maps(0, lifted)), len(reps))

    def coset_mul(u, v):
        fu, fv = (hc.maps_from_vec(0, rep_mat.apply(w)) for w in (u, v))
        return _head(classes.solve(hc.vec_from_maps(0, _compose(fu, fv))), len(reps))

    phi_cols = [phi_of(f) for f in basis]

    def respects_product(i, j):
        fg = _compose(basis[i], basis[j])
        if not equal(theta_of(fg), theta_classes[i].then(theta_classes[j])):
            return False
        return phi_of(fg) == coset_mul(phi_cols[i], phi_cols[j])

    pairs = [(i, j) for i in range(len(basis)) for j in range(len(basis))]
    first = next((p for p in pairs if not respects_product(*p)), None)
    ident = {i: cat.identity(t_complex.obj(i)) for i in t_complex.degrees()}
    ident_class = phi_of(ident)
    unital = equal(theta_of(ident), qcat_right.lift(cat.identity(ym))) and all(
        coset_mul(ident_class, col) == col and coset_mul(col, ident_class) == col
        for col in phi_cols
    )
    return first is None, unital, first


def _orbit_a2(field):
    fx = a2_triangle(field)
    ocat = OrbitCategory(fx.cat, ShiftAuto(fx.cat), AdmissibleSet([0, 1]))
    return corollary_orbit_verify(ocat, fx.cat.sigma, fx.triangle, fx.m)


def _thm1_nakayama32(field):
    fx = cyclic_nakayama(3, 2, field)
    q, m = d_split_sequence(fx.algebra, fx.simples["1"])
    return verify_theorem1(q, m, embedding_check=False)


def _thm2_a2(field):
    tri = a2_triangle(field)
    return verify_theorem2(tri.cat, tri.cat.sigma, tri.triangle, tri.m)


@pytest.mark.parametrize("doubled", [False, True], ids=["theta", "doubled-theta"])
@pytest.mark.parametrize(
    "verdict, char",
    [(_thm1_nakayama32, 0), (_thm1_nakayama32, 7), (_thm2_a2, 0), (_orbit_a2, 0)],
    ids=["thm1-nakayama32-q", "thm1-nakayama32-gf7", "thm2-a2-q", "orbit-a2-q"],
)
def test_ring_map_flags_agree_with_the_pairwise_definition(monkeypatch, verdict, char, doubled):
    certify = derivedeq._certify
    seen = []

    def recording(*args):
        if doubled:
            theta_of = args[-1]
            args = args[:-1] + (lambda f: theta_of(f).scale(2),)
        seen.append(args)
        return certify(*args)

    monkeypatch.setattr(derivedeq, "_certify", recording)
    monkeypatch.setattr(angulate, "_certify", recording)
    cert = verdict(FieldSpec(char))
    (args,) = seen
    multiplicative, unital, first = _pairwise_ring_map_checks(*args)
    assert (cert.flags["multiplicative"], cert.flags["unital"]) == (multiplicative, unital)
    assert multiplicative is not doubled and unital is not doubled
    witness = cert.data["multiplicative_witness"]
    assert (witness[:2] if witness else None) == first


def test_non_ideal_homotopy_relation_fails_on_the_phi_side(monkeypatch):
    # adding the first basis chain map to the null-homotopic maps leaves a
    # subspace that is not an ideal, so the coset product is not the class
    # of the product: theta still passes and the witness names phi
    boundaries = HomComplex.boundaries

    def enlarged(hc, n):
        cyc = hc.cycles(n)
        return boundaries(hc, n) + Subspace.from_vectors(cyc.field, cyc.ambient, [cyc.basis[0]])

    monkeypatch.setattr(HomComplex, "boundaries", enlarged)
    certify = derivedeq._certify
    seen = []
    monkeypatch.setattr(derivedeq, "_certify", lambda *a: seen.append(a) or certify(*a))
    cert = _thm1_nakayama32(FieldSpec(0))
    multiplicative, unital, first = _pairwise_ring_map_checks(*seen[0])
    assert not multiplicative and not cert.flags["multiplicative"]
    assert cert.flags["unital"] == unital
    assert cert.data["multiplicative_witness"] == first + ("phi",) == (0, 7, "phi")


def test_certify_solves_theta_per_basis_map_and_builds_each_basis_chain_map_once(monkeypatch):
    # the products are read off multiplication tables: theta once per basis
    # chain map, and one chain map built from coordinates per basis element
    # of End(T) and of its m homotopy classes, never per pair of them
    calls = {"theta": 0, "maps_from_vec": 0}
    theta, maps_from_vec = derivedeq.theta, HomComplex.maps_from_vec

    def counting_theta(t, f):
        calls["theta"] += 1
        return theta(t, f)

    def counting_maps_from_vec(self, n, vec):
        calls["maps_from_vec"] += 1
        return maps_from_vec(self, n, vec)

    monkeypatch.setattr(derivedeq, "theta", counting_theta)
    monkeypatch.setattr(HomComplex, "maps_from_vec", counting_maps_from_vec)
    cert = _thm1_nakayama32(FieldSpec(0))
    n, m = cert.data["end_cb_dim"], cert.data["phi_mat"].rows
    assert cert.passed and (n, m) == (19, 9)
    assert calls == {"theta": n, "maps_from_vec": n + m}


def test_end_rings_solve_no_zero_right_hand_side(monkeypatch):
    # a composite that vanishes is absent, so HomSpace.coords answers it
    # without a solve: no end ring of a certificate solves for zeros
    inside, zero_solves = [False], []
    ring, solve = derivedeq.end_ring, LinSolver.solve

    def tracking_end_ring(*args, **kwargs):
        inside[0] = True
        try:
            return ring(*args, **kwargs)
        finally:
            inside[0] = False

    def counting_solve(self, b):
        if inside[0] and not any(b.values()):  # b is a {row: nonzero} dict
            zero_solves.append(len(b))
        return solve(self, b)

    monkeypatch.setattr(derivedeq, "end_ring", tracking_end_ring)
    monkeypatch.setattr(LinSolver, "solve", counting_solve)
    fx = cyclic_nakayama(4, 2)
    cert = verify_theorem1(*d_split_sequence(fx.algebra, fx.simples["1"]), embedding_check=False)
    assert cert.passed
    assert zero_solves == []


def test_tables_and_differentials_compose_without_then(monkeypatch):
    # end rings, ideals and Hom-complex differentials compose basis maps
    # through one composite table per pair of Hom spaces, never pair by pair
    from deqcert import catideal

    tabled = {
        fn.__code__: name
        for name, fn in [
            ("end_ring", catideal.end_ring),
            ("ideal_space", catideal.ideal_space),
            ("factorization_through", catideal.factorization_through),
            ("_diff_matrix", HomComplex._diff_matrix),
        ]
    }
    calls, then = [], Mor.then

    def counting(self, other):
        frame = sys._getframe(1)
        while frame is not None:
            if frame.f_code in tabled:
                calls.append(tabled[frame.f_code])
                break
            frame = frame.f_back
        return then(self, other)

    monkeypatch.setattr(Mor, "then", counting)
    fx = cyclic_nakayama(5, 2)
    q, m = d_split_sequence(fx.algebra, fx.simples["1"])
    assert verify_theorem1(q, m).passed
    # the certificate reads no ideal that factors through add(m)
    spec = SubcatSpec(q.cat, [m])
    assert catideal.factorization_through(q.cat, spec, q.obj(1), q.obj(2)).dim
    assert calls == []


def test_kxx_loop_algebra_sequence():
    fx = kxx()
    q, m = d_split_sequence(fx.algebra, fx.simples["1"])
    cert = verify_theorem1(q, m)
    assert cert.passed, cert.flags


def test_as_dict_report_shape():
    # the one report shape of a certificate is the CLI's
    fx = cyclic_nakayama(2, 2)
    q, m = d_split_sequence(fx.algebra, fx.simples["1"])
    report = _certificate_report("verify-thm1", verify_theorem1(q, m))
    assert report["passed"] is True
    assert set(report) >= {"passed", "flags", "ring_left_dim", "ring_right_dim"}


def test_nu_stable_sequence_worked_example():
    fx = nakayama4()
    q = nu_stable_sequence(fx.p, fx.y, steps=2)
    # 0 -> X -> Q^1 -> Q^2 -> Q^3 -> Y -> 0 with the expected dimensions
    assert q.lo == 0 and q.hi == 4
    x = q.obj(0)
    assert sum(x.dims.values()) == 4
    assert sum(fx.y.dims.values()) == 2
    for i in range(1, q.hi):
        assert sum(q.obj(i).dims.values()) == 5  # each middle term is one P_v
    spec_cat = fx.algebra.modcat
    spec = SubcatSpec(spec_cat, [fx.p])
    assert ideal_space(spec_cat, spec, x, x, "L").dim == 0
    assert ideal_space(spec_cat, spec, fx.y, fx.y, "R").dim == 0


def test_nu_stable_requires_stable_subcategory():
    fx = a2()
    # P1 over the linear A2 quiver is not stable under the Nakayama transform
    with pytest.raises(HypothesisError):
        nu_stable_sequence(fx.projectives["1"], fx.simples["1"], steps=1)


@pytest.mark.parametrize("char", [0, 2, 3])
def test_nu_stability_of_regular_sums_is_decided_without_draws(char):
    # A^k over cyclic_nakayama(3, 4): nu permutes the three projectives, so
    # every k passes, and the S1 pipeline runs to its 16-step cap
    fx = cyclic_nakayama(3, 4, FieldSpec(char))
    cat = fx.algebra.modcat
    a = regular_module(fx.algebra).obj
    for k in (2, 3, 4):
        p = cat.direct_sum([a] * k).obj
        q = nu_stable_sequence(p, fx.simples["1"])
        assert [q.obj(i).total_dim for i in q.degrees()] == [3] + [4] * 17 + [1]


@pytest.mark.parametrize("char", [0, 2, 3])
@pytest.mark.parametrize("e, l", [(2, 2), (3, 2)])
def test_nu_moving_a_summand_to_another_projective_is_rejected(char, e, l):
    # nu P1 is the injective hull of S1, a projective P_w with w != 1 here;
    # p = P1 is rejected, and so is P1 + A, whose multiset of summands nu
    # changes although it keeps their set; A itself is stable
    fx = cyclic_nakayama(e, l, FieldSpec(char))
    cat = fx.algebra.modcat
    nu1 = nakayama_projective(fx.algebra, fx.projectives["1"])
    images = [v for v, pv in fx.projectives.items() if iso_from_projective(pv, nu1) is not None]
    assert len(images) == 1 and images != ["1"]
    a = list(fx.projectives.values())
    for p in (fx.projectives["1"], cat.direct_sum(a[:1] + a).obj):
        with pytest.raises(HypothesisError) as err:
            nu_stable_sequence(p, fx.simples["1"], steps=1)
        assert "undecided" not in str(err.value)
    assert nu_stable_sequence(cat.direct_sum(a).obj, fx.simples["1"], steps=1).hi == 3


def test_worked_example_certificate():
    sc = worked_example_scenario()
    cert = verify_theorem1(sc.q, sc.p, embedding_check=False)
    assert cert.passed, cert.flags
    assert len(cert.ring_left.labels) == 11
    assert len(cert.ring_right.labels) == 9


def test_minimize_right_approximation_drops_redundant_summands():
    # End(P1) over k[x]/(x^2) has basis {1, x}: the universal approximation
    # takes one copy of P1 per basis map, the identity alone already suffices
    fx = kxx()
    cat = fx.algebra.modcat
    p1 = fx.projectives["1"]
    spec = SubcatSpec(cat, [p1])
    universal, _ = right_approximation(cat, spec, p1)
    minimal, f = minimal_right_approximation(cat, spec, p1)
    assert len(universal.summands) == 2
    assert len(minimal.summands) == 1
    assert approximation_witness(cat, spec, f, "right") is None


def test_in_add_decides_membership_exactly():
    # P1 + P1 over k[x]/(x^2) with its arrow matrix conjugated by s: no single
    # Hom basis map from P1 + P1 is an isomorphism, yet the module is in add(P1)
    fx = kxx()
    field = fx.algebra.field
    cat = fx.algebra.modcat
    spec = SubcatSpec(cat, [fx.projectives["1"]])
    pp = cat.direct_sum([fx.projectives["1"], fx.projectives["1"]]).obj
    s = Mat(field, [[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1], [1, 0, 0, 2]])
    solver = LinSolver(s)
    s_inv = Mat.from_columns(field, [solver.solve({j: 1}) for j in range(4)], 4)
    mod = ModuleRep.quiver_rep(fx.algebra, {"1": 4}, {"x": s * pp.mats["x"] * s_inv})
    assert derivedeq._in_add(cat, spec, mod) is True
    # S1 + S2 over cyclic_nakayama(2, 2) has the dimension vector of P1 and
    # nonzero Homs to and from it, but is not in add(P1, P2)
    fx = cyclic_nakayama(2, 2)
    cat = fx.algebra.modcat
    spec = SubcatSpec(cat, [fx.projectives["1"], fx.projectives["2"]])
    ss = cat.direct_sum([fx.simples["1"], fx.simples["2"]]).obj
    assert derivedeq._in_add(cat, spec, ss) is False
    assert derivedeq._in_add(cat, spec, fx.projectives["1"]) is True
    # ... and it is the first kernel of the pipeline for P1 + P2 and S1 + S2
    p = cat.direct_sum([fx.projectives["1"], fx.projectives["2"]]).obj
    q = nu_stable_sequence(p, ss, max_steps=2)
    assert [q.obj(i).total_dim for i in q.degrees()] == [2, 4, 4, 4, 2]


def _q_entries(x):
    """Every scalar held by x, through Mats, subspaces, rings, morphisms and containers."""
    if isinstance(x, Mat):
        yield from (v for row in x.tolist() for v in row)
    elif isinstance(x, Subspace):
        yield from _q_entries(list(x.basis))
    elif isinstance(x, RingPresentation):
        yield from _q_entries([x.table, x.unit])
    elif isinstance(x, Mor):
        yield from _q_entries(x.payload)
    elif isinstance(x, dict):
        for v in x.values():
            yield from _q_entries(v)
    elif isinstance(x, (list, tuple)):
        for v in x:
            yield from _q_entries(v)
    else:
        yield x


def test_q_certificates_hold_no_float_bool_or_integral_fraction():
    # over Q a field element is an int, or a Fraction only when a real
    # denominator remains; an int / int anywhere would leak a float
    fx = cyclic_nakayama(3, 2)
    q, m = d_split_sequence(fx.algebra, fx.simples["1"])
    tri = a2_triangle()
    certs = [
        (verify_theorem1(q, m, embedding_check=False), fx.algebra.modcat),
        (verify_theorem2(tri.cat, tri.cat.sigma, tri.triangle, tri.m), tri.cat),
    ]
    for cert, cat in certs:
        assert cert.passed and cat.field.char == 0
        theta_mat, phi_mat = cert.data["theta_mat"], cert.data["phi_mat"]
        held = [theta_mat, phi_mat, kernel(theta_mat), kernel(phi_mat)]
        held += [cert.ring_left, cert.ring_right]
        held += [payloads for payloads, _ in cat._hom_cache.values()]  # the basis payloads
        entries = list(_q_entries(held))
        assert entries
        exact = [type(v) is int or (type(v) is Fraction and v.denominator != 1) for v in entries]
        assert all(exact), [v for v, ok in zip(entries, exact) if not ok][:5]


def test_ring_map_witness_checks_pairs_whose_source_product_is_zero():
    # x·x = 0 in k[x]/(x^2), but theta(x)·theta(x) = y^2 in k[y]/(y^3): the
    # pair (1, 1) fails although its product is zero and so not stored
    src = RingPresentation(QQ, ["1", "x"], {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}}, [1, 0])
    tgt = RingPresentation(
        QQ,
        ["1", "y", "y2"],
        {(i, j): {i + j: 1} for i in range(3) for j in range(3) if i + j < 3},
        [1, 0, 0],
    )
    theta_mat = Mat(QQ, [[1, 0], [0, 1], [0, 0]])
    witness, unital = derivedeq._ring_map_witness(src, [("theta", theta_mat, tgt)])
    assert witness == (1, 1, "theta")
    assert unital


# -- pinned certificates ------------------------------------------------------

PINS = Path(__file__).resolve().parent / "data" / "certificates.json"


def _thm2_cone_nakayama23_p1_p2(field):
    fx = cyclic_nakayama(2, 3, field)
    cat = angulate.KbProjCat(fx.algebra)
    p1, p2 = fx.projectives["1"], fx.projectives["2"]
    f = fx.algebra.modcat.hom(p1, p2).basis[0]
    x, m = cat.stalk_obj(p1), cat.stalk_obj(p2)
    tri = angulate.cone_triangle(cat, Mor(cat, x, m, {0: f}))
    return verify_theorem2(cat, cat.sigma, tri, m)


def _orbit_a2_triangle_phi01(field):
    fx = a2_triangle(field)
    ocat = OrbitCategory(fx.cat, ShiftAuto(fx.cat), AdmissibleSet([0, 1]))
    return corollary_orbit_verify(ocat, fx.cat.sigma, fx.triangle, fx.m)


PINNED = {
    "thm1/cyclic_nakayama(3,2)/S1/q": (_thm1_nakayama32, 0),
    "thm1/cyclic_nakayama(3,2)/S1/fp:101": (_thm1_nakayama32, 101),
    "thm2/cyclic_nakayama(2,3)/P1->P2/q": (_thm2_cone_nakayama23_p1_p2, 0),
    "thm2/cyclic_nakayama(2,3)/P1->P2/fp:101": (_thm2_cone_nakayama23_p1_p2, 101),
    "orbit/a2_triangle/phi{0,1}/q": (_orbit_a2_triangle_phi01, 0),
}


def _ring_pin(ring):
    """Structure constants as sparse [i, j, k, value] entries, and the unit."""
    table = [
        [i, j, k, str(c)]
        for i, row in enumerate(dense_table(ring))
        for j, vec in enumerate(row)
        for k, c in enumerate(vec)
        if c
    ]
    return {"dim": ring.dim, "table": table, "unit": [str(c) for c in ring.unit]}


def _certificate_pin(verdict, char):
    """Everything a certificate claims: flags, theta and phi, the four rings
    (End(T), both quotient rings, the homotopy classes) and the witness."""
    seen = []
    witness_of = derivedeq._ring_map_witness
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(
            derivedeq,
            "_ring_map_witness",
            lambda src, maps: seen.append((src, maps)) or witness_of(src, maps),
        )
        cert = verdict(FieldSpec(char))
    ((end_t, ((_, _, ring_right), (_, _, homotopy))),) = seen
    witness = cert.data["multiplicative_witness"]
    return {
        "flags": cert.flags,
        "theta": [[str(c) for c in row] for row in cert.data["theta_mat"].tolist()],
        "phi": [[str(c) for c in row] for row in cert.data["phi_mat"].tolist()],
        "rings": {
            "end_t": _ring_pin(end_t),
            "left": _ring_pin(cert.ring_left),
            "right": _ring_pin(ring_right),
            "homotopy": _ring_pin(homotopy),
        },
        "multiplicative_witness": list(witness) if witness else None,
    }


def certificate_pins():
    """The pinned certificates, as stored in tests/data/certificates.json;
    rewrite that file from this function only when a certificate is meant
    to change."""
    return {name: _certificate_pin(*args) for name, args in PINNED.items()}


def test_pinned_certificates_are_unchanged():
    assert certificate_pins() == json.loads(PINS.read_text())


# -- sparse structure constants -----------------------------------------------


def _scalar(f, rng, density):
    """A random field element, zero with probability 1 - density; over Q a
    fraction with denominator up to 3."""
    if rng.random() >= density:
        return f.zero
    if f.char:
        return random_element(f, rng)
    return f.coerce(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))


def _assert_sparse_table_matches(ring, dense, rng):
    """ring stores exactly the nonzero products of the dense reference
    dense[i][j][k], as normalised field elements, and its dense view and
    product agree with dense sums over every constant."""
    f, n = ring.field, ring.dim
    assert dense_table(ring) == dense
    nonzero = {(i, j) for i in range(n) for j in range(n) if any(dense[i][j])}
    assert set(ring.table) == nonzero
    for (i, j), vec in ring.table.items():
        assert vec == {k: c for k, c in enumerate(dense[i][j]) if c}
        for c in vec.values():
            assert 0 < c < f.char if f.char else type(c) is int or c.denominator != 1
    for density in (0.25, 1):
        u = [_scalar(f, rng, density) for _ in range(n)]
        v = [_scalar(f, rng, density) for _ in range(n)]
        ref = [f.zero] * n
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    ref[k] = f.add(ref[k], f.mul(f.mul(u[i], v[j]), dense[i][j][k]))
        uv = ring.mul(_sparse(u), _sparse(v))
        assert uv == {k: c for k, c in enumerate(ref) if c}
        assert not any(type(x) is Fraction and x.denominator == 1 for x in uv.values())


PRESETS = [a2, a3, kxx, nakayama4, lambda f: cyclic_nakayama(3, 2, f), lambda f: cyclic_nakayama(2, 3, f)]


@pytest.mark.parametrize("char", [0, 2, 101])
def test_sparse_structure_constants_match_a_dense_reference(char, monkeypatch):
    field, rng = FieldSpec(char), random.Random(2100 + char)
    # path algebras: e_p·e_q is the concatenated path when it is a basis path
    for preset in PRESETS:
        alg = preset(field).algebra
        paths = alg.presentation.paths
        index = {(p.source, p.arrows): k for k, p in enumerate(paths)}
        dense = [[[0] * alg.dim for _ in paths] for _ in paths]
        for i, p in enumerate(paths):
            for j, q in enumerate(paths):
                k = index.get((p.source, p.arrows + q.arrows))
                if p.target == q.source and k is not None:
                    dense[i][j][k] = 1
        _assert_sparse_table_matches(alg, dense, rng)
    # the four rings of every pinned certificate: each product from Mor.then
    # and one coordinate solve per pair
    seen = []

    def recording_end_ring(cat, obj):
        ring = end_ring(cat, obj)
        space = cat.hom(obj, obj)
        products = [[space.coords(a.then(b).payload) for b in space.basis] for a in space.basis]
        dense = [[[vec.get(k, 0) for k in range(space.dim)] for vec in row] for row in products]
        seen.append((ring, dense))
        return ring

    monkeypatch.setattr(derivedeq, "end_ring", recording_end_ring)
    for verdict in dict.fromkeys(verdict for verdict, _ in PINNED.values()):
        seen.clear()
        assert verdict(field).passed
        assert len(seen) == 4
        for ring, dense in seen:
            _assert_sparse_table_matches(ring, dense, rng)
