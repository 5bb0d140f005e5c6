"""The main equivalence engine: tilting data from a long sequence, the two
ring surjections with a common kernel (the certificate core, which the
angle engine reuses), and the projective-approximation pipeline for
stable-under-Nakayama projectives.
"""

from __future__ import annotations

from collections import Counter
from itertools import product

from .algebra import (
    ModuleRep,
    image_module,
    intertwiner_system,
    iso_from_projective,
    kernel_module,
    nakayama_projective,
    projective,
)
from .catideal import (
    RingPresentation,
    SubcatSpec,
    end_ring,
    ideal_space,
    minimal_right_approximation,
)
from .category import DirectSumData, MorphismEquations, QuotientCategory
from .complexes import (
    ChainMapCategory,
    Complex,
    HomotopyCategory,
    _homology_at,
    check_thm1_conditions,
    complex_in_quotient,
    nonzero_homology,
    stalk,
)
from .errors import HypothesisError, InputError, InternalConsistencyError
from .exactla import Mat, Subspace, _normal, _sparse

__all__ = [
    "EquivCertificate",
    "augment",
    "build_tilting",
    "theta",
    "verify_theorem1",
    "nu_stable_sequence",
]


class TiltingData:
    """The augmented complex P•, its truncation T•, the two quotient
    categories the equivalence lives over, and theta's top-square system."""

    def __init__(self, cat, q, m, spec, n, p_complex, t_complex, ym_sum, facts):
        self.cat = cat
        self.q = q
        self.m = m
        self.spec = spec
        self.n = n
        self.p_complex = p_complex
        self.t_complex = t_complex
        self.ym_sum = ym_sum  # Y + M with injections/projections
        self.facts = facts
        self.qcat_left = QuotientCategory(cat, lambda a, b: ideal_space(cat, spec, a, b, "L"))
        self.qcat_right = QuotientCategory(cat, lambda a, b: ideal_space(cat, spec, a, b, "R"))
        # d~ . u = f^n . d~ for u in End(Y+M)
        d_tilde = p_complex.diff(n)
        ym = ym_sum.obj
        self.theta_eqs = MorphismEquations(
            cat, [cat.hom(ym, ym)], [(cat.hom(d_tilde.src, ym), [(0, d_tilde, "pre")])]
        )


def augment(cat, m, objs, maps):
    """Adjoin m in the top degrees of objs[0] -> ... -> objs[-1] (maps
    between consecutive objects), the middle terms being in add(m).

    Returns (P, T, Y+M, d~): d~ = diag(maps[-1], 1_m) from objs[-2] + m to
    Y+M, where Y = objs[-1]; P is the complex objs[0] -> ... -> objs[-3] ->
    objs[-2] + m -> Y+M with X = objs[0] in degree 0, and T is P without its
    top term.
    """
    top = cat.direct_sum([objs[-2], m])
    ym_sum = cat.direct_sum([objs[-1], m])
    d_tilde = cat.mor_from_blocks(top, ym_sum, [[maps[-1], None], [None, cat.identity(m)]])
    t_objs = list(objs[:-2]) + [top.obj]
    t_diffs = list(maps[:-2]) + [maps[-2].then(top.injections[0])]
    t_complex = Complex(cat, 0, t_objs, t_diffs)
    p_complex = Complex(cat, 0, t_objs + [ym_sum.obj], t_diffs + [d_tilde], check=False)
    return p_complex, t_complex, ym_sum, d_tilde


def build_tilting(q: Complex, m) -> TiltingData:
    """Check that the middle terms are in add(m), then adjoin the identity
    of m in top degrees and truncate."""
    report = check_thm1_conditions(q, m)
    if not report["ok"]:
        raise HypothesisError(
            f"homology conditions fail: {report['failing']}", witness=report
        )
    cat = q.cat
    n = report["n"]
    spec = SubcatSpec(cat, [m])
    _check_middle_terms(spec, [(i, q.obj(i)) for i in range(1, n + 1)])
    p_complex, t_complex, ym_sum, _ = augment(
        cat, m, [q.obj(i) for i in range(n + 2)], [q.diff(i) for i in range(n + 1)]
    )

    m_stalk = stalk(cat, m)
    facts = {
        "a": not nonzero_homology(m_stalk, p_complex, (0,)),
        "b": not nonzero_homology(p_complex, m_stalk, (-n - 1,)),
        "c": not _homology_at(stalk(cat, q.obj(0)), p_complex, 1)
        and not _homology_at(p_complex, stalk(cat, ym_sum.obj), -n),
    }
    if not all(facts.values()):
        raise InternalConsistencyError(
            f"transported homology facts failed: {facts}"
        )
    return TiltingData(cat, q, m, spec, n, p_complex, t_complex, ym_sum, facts)


def _check_middle_terms(spec: SubcatSpec, terms):
    """Raise HypothesisError, with the degree and the term as its witness, at
    the first of the (degree, term) pairs whose term is not in add(M); each
    distinct term (by key) is tested once."""
    tested = set()
    for degree, obj in terms:
        if obj.key not in tested and not spec.contains(obj):
            raise HypothesisError(
                f"the middle term in degree {degree} is not in add(M)",
                witness={"degree": degree, "term": obj},
            )
        tested.add(obj.key)


def theta(t: TiltingData, f: dict):
    """The endomorphism of Y+M modulo the right annihilator induced by the
    chain map T -> T with components f (degree -> morphism)."""
    d_tilde = t.p_complex.diff(t.n)
    f_top = f.get(t.n) or t.cat.zero_mor(d_tilde.src, d_tilde.src)
    sol = t.theta_eqs.solve([f_top.then(d_tilde)])
    if sol is None:
        raise InternalConsistencyError(
            "top square not solvable although the homology facts hold"
        )
    return t.qcat_right.lift(sol[0])


class EquivCertificate:
    def __init__(self, ring_left, ring_right, flags, data):
        self.ring_left = ring_left  # End over C/L of m + X
        self.ring_right = ring_right  # End over C/R of Y + M
        self.flags = flags
        self.data = data

    @property
    def passed(self) -> bool:
        return all(self.flags.values())


def _certify(t_complex, qcat_left, qcat_right, ym, mx, theta_of) -> EquivCertificate:
    """The argument shared by Theorems 1 and 2 on the truncated complex T.

    theta_of sends the components (degree -> morphism) of a chain map
    T -> T to an endomorphism of ym over qcat_right; phi sends the chain
    map to its homotopy class over qcat_left.  All four rings are read with
    end_ring: End(T) over chain maps, End(mx) and End(ym) over the two
    quotients, and End(T) over the homotopy category of qcat_left.  theta
    and phi are checked to be surjective ring maps with equal kernels on
    the chain-map basis of End(T); the first basis pair that breaks
    multiplicativity is data["multiplicative_witness"].
    """
    cat = t_complex.cat
    field = cat.field
    ccat = ChainMapCategory(cat)
    end_t = end_ring(ccat, t_complex)
    basis = [f.payload for f in ccat.hom(t_complex, t_complex).basis]
    ring_left = end_ring(qcat_left, mx)
    ring_right = end_ring(qcat_right, ym)
    hcat = HomotopyCategory(qcat_left)
    t_bar = complex_in_quotient(qcat_left, t_complex)
    homotopy = end_ring(hcat, t_bar)

    end_ym = qcat_right.hom(ym, ym)
    theta_cols = [end_ym.coords(theta_of(f).payload) for f in basis]
    theta_mat = Mat.from_columns(field, theta_cols, end_ym.dim)
    classes = hcat.hom(t_bar, t_bar)
    phi_cols = [classes.coords({i: qcat_left.lift(g) for i, g in f.items()}) for f in basis]
    phi_mat = Mat.from_columns(field, phi_cols, classes.dim)
    ker_theta = Subspace.from_vectors(field, len(basis), theta_mat.kernel_basis())
    ker_phi = Subspace.from_vectors(field, len(basis), phi_mat.kernel_basis())
    witness, unital = _ring_map_witness(
        end_t, [("theta", theta_mat, ring_right), ("phi", phi_mat, homotopy)]
    )

    flags = {
        "theta_surjective": len(basis) - ker_theta.dim == end_ym.dim,
        "phi_surjective": len(basis) - ker_phi.dim == classes.dim,
        "kernels_equal": ker_theta == ker_phi,
        "multiplicative": witness is None,
        "unital": unital,
        "dim_match": len(basis) - ker_theta.dim == ring_right.dim,
    }
    data = {
        "end_cb_dim": len(basis),
        "kernel_dim": ker_theta.dim,
        "theta_mat": theta_mat,
        "phi_mat": phi_mat,
        "multiplicative_witness": witness,
    }
    return EquivCertificate(ring_left, ring_right, flags, data)


def _ring_map_witness(src: RingPresentation, maps):
    """Check linear maps out of the ring src against its structure constants.

    maps lists (name, mat, tgt): mat sends src coordinates to coordinates
    in the ring tgt.  A map is multiplicative when mat(e_i e_j) equals
    mat(e_i) mat(e_j) for every basis pair, which by bilinearity is the
    whole claim.  Returns (witness, unital): the first failing (i, j, name),
    pairs row-major and maps in list order within a pair, or None; and
    whether every mat sends src's unit to tgt's, which is a two-sided
    identity on every column of mat.  An image sums the columns of mat at
    the nonzeros of a vector; a pair whose product is zero is still compared.
    """
    p = src.field.char
    cols = [(name, tgt, mat.transpose().sparse_rows) for name, mat, tgt in maps]

    def image(c, vec):
        acc = {}
        for a, x in vec.items():
            for k, t in c[a].items():
                acc[k] = acc[k] + x * t if k in acc else x * t
        return _normal(p, acc) if acc else acc

    witness = next(
        (
            (i, j, name)
            for i, j in product(range(src.dim), repeat=2)
            for name, tgt, c in cols
            if image(c, src.table.get((i, j), {})) != tgt.mul(c[i], c[j])
        ),
        None,
    )
    unital = all(
        image(c, _sparse(src.unit)) == (unit := _sparse(tgt.unit))
        and all(tgt.mul(unit, col) == col == tgt.mul(col, unit) for col in c)
        for _, tgt, c in cols
    )
    return witness, unital


def verify_theorem1(q: Complex, m, embedding_check: bool = True) -> EquivCertificate:
    """Run the full construction and verify every step numerically."""
    t = build_tilting(q, m)
    mx_sum = t.cat.direct_sum([t.m, q.obj(0)])
    cert = _certify(
        t.t_complex, t.qcat_left, t.qcat_right, t.ym_sum.obj, mx_sum.obj, lambda f: theta(t, f)
    )
    if embedding_check:
        cert.flags["embedding_dims"] = _full_embedding_dim_check(t, mx_sum, cert.ring_left)
    cert.data["facts"] = t.facts
    return cert


def _full_embedding_dim_check(t: TiltingData, mx_sum: DirectSumData, ring) -> bool:
    """Dimension form of the full-embedding claim: Hom over the left
    quotient between the terms of T• must match Hom between their images
    under Hom(m+X, -), i.e. right modules over ring = End(m+X) over that
    quotient (notes/decisions.md).  ring must be associative and unital."""
    try:
        ring.to_algebra()
    except InputError:
        return False
    qcat = t.qcat_left
    # dims[i][j] depends on the two objects alone: one system per distinct pair
    terms = list({u.key: u for u in t.t_complex.objs}.values())
    dims = _embedded_hom_dims(qcat, mx_sum.summands, terms)
    return all(
        dims[i][j] == qcat.hom(u, v).dim
        for i, u in enumerate(terms)
        for j, v in enumerate(terms)
    )


def _embedded_hom_dims(qcat, summands, terms):
    """dims[i][j] = dim Hom_A(Hom(S, terms[i]), Hom(S, terms[j])), where S is
    the sum of the summands s_k and A = End(S) over qcat.

    Hom(S, u) is graded by the summands, slot k being Hom(s_k, u).  Every
    basis element a of Hom(s_k, s_l) is an arrow l -> k acting by
    h -> a.then(h).  These arrows span A, and a family of slot maps already
    commutes with the slot idempotents, so the slot maps intertwining every
    arrow are exactly the A-linear maps.
    """
    field = qcat.field
    slots = range(len(summands))
    blocks = [
        (l, k, qcat.hom(s_k, s_l).basis)
        for k, s_k in enumerate(summands)
        for l, s_l in enumerate(summands)
    ]
    arrows = [(l, k) for l, k, basis in blocks for _ in basis]
    mods = []
    for u in terms:
        spaces = [qcat.hom(s, u) for s in summands]
        # one composite table per pair of slots: row a holds the images a.then(h)
        acts = [
            Mat.from_columns(field, images, spaces[k].dim)
            for l, k, basis in blocks
            for images in qcat.composite_coords(basis, spaces[l].basis)
        ]
        mods.append(([sp.dim for sp in spaces], acts))

    def hom_dim(src, tgt):
        (src_dims, src_acts), (tgt_dims, tgt_acts) = src, tgt
        pairs = [(l, k, a_v, a_u) for (l, k), a_v, a_u in zip(arrows, tgt_acts, src_acts)]
        system = intertwiner_system(field, slots, src_dims, tgt_dims, pairs)
        return system.cols - system.rank()

    return [[hom_dim(src, tgt) for tgt in mods] for src in mods]


# -- projective-approximation pipeline -------------------------------------


def _is_surjective(f) -> bool:
    img, _ = image_module(f)
    return all(img.dims[s] == f.tgt.dims[s] for s in f.tgt.slots)


def nu_stable_sequence(p: ModuleRep, y: ModuleRep, steps=None, max_steps=16):
    """Iterated minimal right approximations 0 -> X -> P_n..P_0 -> Y -> 0.

    Requires the Nakayama transform of p to be isomorphic to p (decided
    exactly by ``_nu_stable``), and y to admit a presentation by add(p)
    (first two approximations surjective).  Returns the sequence as a
    Complex with X in degree 0.
    """
    if max_steps < 0 or (steps is not None and steps < 0):
        raise InputError("steps and max_steps must not be negative")
    algebra = p.algebra
    cat = algebra.modcat
    if p.proj_summands is None:
        raise HypothesisError("p is not a certified sum of projectives")
    projs = {v: projective(algebra, v) for v in sorted(set(p.proj_summands))}
    if not _nu_stable(p.proj_summands, projs):
        raise HypothesisError("projective is not stable under the Nakayama transform")
    spec = SubcatSpec(cat, list(projs.values()))

    approx_data, f0 = minimal_right_approximation(cat, spec, y)
    if not _is_surjective(f0):
        raise HypothesisError("y is not generated by add(p)")
    terms = [(approx_data.obj, f0)]  # (P_i, f_i: P_i -> previous target)
    current_f = f0
    step = 0
    while True:
        x, x_incl = kernel_module(current_f)
        # stop after the given steps, or else at a kernel that is zero or in add(p)
        if (step >= steps) if steps is not None else (
            x.total_dim == 0 or _in_add(spec, x) or step >= max_steps
        ):
            break
        data, approx = minimal_right_approximation(cat, spec, x)
        if step == 0 and not _is_surjective(approx):
            raise HypothesisError("first kernel has no surjective approximation; no presentation")
        current_f = approx.then(x_incl)
        terms.append((data.obj, current_f))
        step += 1

    # assemble 0 -> X -> P_n -> ... -> P_0 -> Y -> 0, X in degree 0
    objs = [x] + [obj for obj, _ in reversed(terms)] + [y]
    diffs = [x_incl] + [f for _, f in reversed(terms)]
    q = Complex(cat, 0, objs, diffs)

    # the construction makes Hom(p, -) exact along the sequence; check both
    # transported vanishing families outright
    p_stalk = stalk(cat, p)
    if bad := nonzero_homology(p_stalk, q):
        raise InternalConsistencyError(f"Hom(p, sequence) not exact: {bad}")
    if bad := nonzero_homology(q, p_stalk):
        raise InternalConsistencyError(f"Hom(sequence, p) not exact: {bad}")
    return q


def _nu_stable(summands, projs) -> bool:
    """Is nu of the sum of the P_v, v over summands, isomorphic to that sum?

    projs maps each distinct summand vertex to its projective.  nu is
    additive and each nu P_v is indecomposable, so by Krull-Schmidt the two
    sums agree exactly when sending each P_v to the one P_w isomorphic to
    nu P_v (or to none) keeps the multiset of summands.
    """
    counts = Counter(summands)
    images = Counter()
    for v, proj in projs.items():
        nu = nakayama_projective(proj.algebra, proj)
        w = next((w for w, pw in projs.items() if iso_from_projective(pw, nu) is not None), None)
        images[w] += counts[v]
    return images == counts


def _in_add(spec: SubcatSpec, mod: ModuleRep) -> bool:
    """Is the module in add(generators)?  A dimension-vector count rules most
    modules out before any Hom space is built; ``spec.contains`` decides the
    rest exactly."""
    gens = spec.generators
    caps = [mod.total_dim // g.total_dim if g.total_dim else 0 for g in gens]
    return any(
        all(sum(m * g.dims[s] for m, g in zip(mults, gens)) == mod.dims[s] for s in mod.slots)
        for mults in product(*[range(c + 1) for c in caps])
    ) and spec.contains(mod)
