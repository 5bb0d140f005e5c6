"""The split-sequence equivalence engine for module categories."""

from fractions import Fraction

import pytest

from deqcert import derivedeq
from deqcert.algebra import ModuleRep
from deqcert.angulate import verify_theorem2
from deqcert.category import Mor
from deqcert.catideal import (
    RingPresentation,
    SubcatSpec,
    ideal_space,
    is_right_approximation,
    minimal_right_approximation,
    right_approximation,
)
from deqcert.derivedeq import nu_stable_sequence, verify_theorem1
from deqcert.errors import HypothesisError
from deqcert.exactla import LinSolver, Mat, Subspace, kernel
from deqcert.presets import (
    a2,
    a2_triangle,
    cyclic_nakayama,
    d_split_sequence,
    kxx,
    nakayama4,
    worked_example_scenario,
)


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


def test_doubled_theta_fails_exactly_the_ring_map_flags(monkeypatch):
    # 2·theta over Q keeps surjectivity and the kernel, so only the ring-map
    # flags can see it
    fx = cyclic_nakayama(2, 2)
    q, m = d_split_sequence(fx.algebra, fx.simples["1"])
    theta = derivedeq.theta
    monkeypatch.setattr(derivedeq, "theta", lambda t, f: theta(t, f).scale(2))
    cert = verify_theorem1(q, m)
    assert {k for k, v in cert.flags.items() if not v} == {"multiplicative", "unital"}


def test_kxx_loop_algebra_sequence():
    fx = kxx()
    q, m = d_split_sequence(fx.algebra, fx.simples["1"])
    cert = verify_theorem1(q, m)
    assert cert.passed, cert.flags


def test_as_dict_report_shape():
    fx = cyclic_nakayama(2, 2)
    q, m = d_split_sequence(fx.algebra, fx.simples["1"])
    report = verify_theorem1(q, m).as_dict()
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
    assert is_right_approximation(cat, spec, f)


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
    s_inv = Mat.from_columns(
        field, [solver.solve([int(i == j) for i in range(4)]) for j in range(4)], 4
    )
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
        yield from (v for row in x.data for v in row)
    elif isinstance(x, Subspace):
        yield from (v for vec in x.basis for v in vec)
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
        held += [space.basis for space in cat._hom_cache.values()]
        entries = list(_q_entries(held))
        assert entries
        exact = [type(v) is int or (type(v) is Fraction and v.denominator != 1) for v in entries]
        assert all(exact), [v for v, ok in zip(entries, exact) if not ok][:5]
