"""Built-in fixtures: small path algebras, the cyclic Nakayama family, and
ready-made split-sequence / triangle instances used by the CLI and tests."""

from types import SimpleNamespace

from .algebra import (
    ModuleRep,
    Quiver,
    kernel_module,
    path_algebra,
    projective,
    regular_module,
    simple_module,
)
from .catideal import SubcatSpec, minimal_right_approximation
from .category import Mor
from .complexes import Complex
from .derivedeq import nu_stable_sequence
from .errors import InputError
from .exactla import FieldSpec, Mat

__all__ = [
    "a2",
    "a3",
    "kxx",
    "nakayama4",
    "cyclic_nakayama",
    "d_split_sequence",
    "a2_triangle",
    "worked_example_scenario",
]


def _field(field):
    return field if field is not None else FieldSpec(0)


def a2(field=None):
    """Path algebra of 1 -> 2, no relations."""
    field = _field(field)
    q = Quiver(["1", "2"], [("a", "1", "2")])
    algebra = path_algebra(q, [], field)
    return SimpleNamespace(
        algebra=algebra,
        projectives={v: projective(algebra, v) for v in ("1", "2")},
        simples={v: simple_module(algebra, v) for v in ("1", "2")},
    )


def a3(field=None):
    """Path algebra of 1 -> 2 -> 3, no relations."""
    field = _field(field)
    q = Quiver(["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3")])
    algebra = path_algebra(q, [], field)
    return SimpleNamespace(
        algebra=algebra,
        projectives={v: projective(algebra, v) for v in ("1", "2", "3")},
        simples={v: simple_module(algebra, v) for v in ("1", "2", "3")},
    )


def kxx(field=None):
    """k[x]/(x^2) as the one-loop quiver."""
    field = _field(field)
    q = Quiver(["1"], [("x", "1", "1")])
    algebra = path_algebra(q, [["x", "x"]], field)
    return SimpleNamespace(
        algebra=algebra,
        projectives={"1": projective(algebra, "1")},
        simples={"1": simple_module(algebra, "1")},
    )


def cyclic_nakayama(n: int, l: int, field=None):
    """Cyclic quiver on n vertices with all paths of length l killed.

    Self-injective for every n, l >= 2; the vertex i arrow goes i -> i+1.
    """
    if n < 1 or l < 2:
        raise InputError("need at least one vertex and relation length >= 2")
    field = _field(field)
    verts = [str(i + 1) for i in range(n)]
    arrows = [(f"a{i + 1}", verts[i], verts[(i + 1) % n]) for i in range(n)]
    q = Quiver(verts, arrows)
    names = [a[0] for a in arrows]
    relations = [[names[(i + j) % n] for j in range(l)] for i in range(n)]
    algebra = path_algebra(q, relations, field)
    return SimpleNamespace(
        algebra=algebra,
        projectives={v: projective(algebra, v) for v in verts},
        simples={v: simple_module(algebra, v) for v in verts},
    )


def nakayama4(field=None):
    """The cyclic Nakayama algebra on 4 vertices with length-5 relations,
    plus its distinguished modules: P = P1 + P3 and the length-2 module Y
    with top S1 and socle S2."""
    field = _field(field)
    fx = cyclic_nakayama(4, 5, field)
    algebra = fx.algebra
    cat = algebra.modcat
    p_sum = cat.direct_sum([fx.projectives["1"], fx.projectives["3"]])
    y = ModuleRep.quiver_rep(
        algebra,
        {"1": 1, "2": 1},
        {"a1": Mat(field, [[field.one]])},
        name="Y(1/2)",
    )
    return SimpleNamespace(
        algebra=algebra,
        projectives=fx.projectives,
        simples=fx.simples,
        p=p_sum.obj,
        y=y,
    )


def d_split_sequence(algebra, y: ModuleRep):
    """0 -> X -> P -> Y with P a minimized right add(A)-approximation and
    X its kernel; over a self-injective algebra this is a split sequence
    for the subcategory add(A).  Returns (complex, m) ready for the
    equivalence engine."""
    cat = algebra.modcat
    m = regular_module(algebra).obj
    if not cat.hom(m, y).basis:
        raise InputError("target receives no map from the regular module")
    data, f = minimal_right_approximation(cat, SubcatSpec(cat, [m]), y)
    x, incl = kernel_module(f)
    q = Complex(cat, 0, [x, data.obj, y], [incl, f])
    return q, m


def a2_triangle(field=None):
    """The triangle P2 -> P1 -> cone in the homotopy category of projectives
    over the 1 -> 2 path algebra; the cone represents the simple S1."""
    from .angulate import KbProjCat, cone_triangle

    fx = a2(field)
    cat = KbProjCat(fx.algebra)
    base = fx.algebra.modcat
    p1, p2 = fx.projectives["1"], fx.projectives["2"]
    arrow = base.hom(p2, p1).basis[0]
    x = cat.stalk_obj(p2)
    m = cat.stalk_obj(p1)
    tri = cone_triangle(cat, Mor(cat, x, m, {0: arrow}))
    return SimpleNamespace(algebra=fx.algebra, cat=cat, triangle=tri, m=m, x=x)


def worked_example_scenario(field=None):
    """The worked example: build X by iterated approximations against
    P = P1 + P3 and return the full split-sequence complex ending in Y."""
    fx = nakayama4(field)
    q = nu_stable_sequence(fx.p, fx.y, steps=2)
    return SimpleNamespace(
        algebra=fx.algebra, p=fx.p, y=fx.y, q=q, x=q.obj(0), projectives=fx.projectives
    )
