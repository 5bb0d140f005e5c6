"""The split-sequence equivalence engine for module categories."""

import random

import pytest

from deqcert import derivedeq
from deqcert.catideal import SubcatSpec, ideal_space
from deqcert.derivedeq import (
    minimize_right_approximation,
    nu_stable_sequence,
    verify_theorem1,
)
from deqcert.errors import HypothesisError
from deqcert.presets import (
    a2,
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
    fx = cyclic_nakayama(2, 2)
    cat = fx.algebra.modcat
    p1 = fx.projectives["1"]
    s1 = fx.simples["1"]
    spec = SubcatSpec(cat, [p1])
    cover = cat.hom(p1, s1).basis[0]
    # duplicate the cover; minimization must discard the extra copy
    summands, maps = minimize_right_approximation(
        cat, spec, [p1, p1], [cover, cover], s1
    )
    assert len(summands) == 1
