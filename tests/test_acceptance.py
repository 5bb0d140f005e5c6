"""Acceptance gate: one test per acceptance criterion.

Each test prints a single summary line (visible with -rA / on failure) and
asserts the criterion.  Criterion 6 asserts the stated target value for the
quotient ring dimensions after recording the independently computed value;
see notes/decisions.md (outside the package) for the analysis of that
instance.
"""

import itertools
import json
import random
import subprocess
import sys
import time

from deqcert.angulate import KbProjCat, cone_triangle, verify_theorem2
from deqcert.catideal import SubcatSpec, ideal_space
from deqcert.cli import main as cli_main
from deqcert.complexes import Complex, HomComplex, homology_dims
from deqcert.derivedeq import verify_theorem1
from deqcert.exactla import FieldSpec, Mat, Subspace
from deqcert.orbit import (
    AdmissibleSet,
    OrbitCategory,
    QuiverTwistAuto,
    ShiftAuto,
    ideals_IJ,
    is_admissible,
)
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

from draws import random_element, random_mor
from oracles import (
    equal,
    lemma_ann_verify,
    lemma_nangle_check,
    orbit_iso_to_power,
    rotate_angle,
    verify_weak_axioms,
)


def run_cli_json(argv):
    proc = subprocess.run(
        [sys.executable, "-m", "deqcert.cli"] + argv + ["--json"],
        capture_output=True,
        text=True,
    )
    return proc.returncode, proc.stdout


# -- criterion 1 -----------------------------------------------------------


def dense_coords(f):
    """The coordinates of the map f written out with their zeros."""
    vec = [f.cat.field.zero] * f.cat.hom(f.src, f.tgt).dim
    for k, c in f.coords().items():
        vec[k] = c
    return vec


def count_paths(quiver, relations, max_len=30):
    """Independent path enumeration for the algebra-dimension oracle."""
    words = {tuple(r) for r in relations}

    def banned(seq):
        return any(
            tuple(seq[i : i + len(r)]) == r
            for r in words
            for i in range(len(seq) - len(r) + 1)
        )

    by_source = {}
    for name, s, t in quiver.arrows:
        by_source.setdefault(s, []).append((name, t))
    total = len(quiver.vertices)
    frontier = [((), v) for v in quiver.vertices]
    for _ in range(max_len):
        nxt = []
        for seq, cur in frontier:
            for name, t in by_source.get(cur, ()):
                seq2 = seq + (name,)
                if not banned(seq2):
                    nxt.append((seq2, t))
        total += len(nxt)
        frontier = nxt
        if not frontier:
            break
    return total


def test_criterion_1_worked_example_end_to_end(capsys):
    t0 = time.time()
    code = cli_main(["example", "nakayama", "--seed", "0", "--json"])
    rep = json.loads(capsys.readouterr().out)
    elapsed = time.time() - t0

    fx = nakayama4()
    quiver = fx.algebra.presentation.quiver
    relations = fx.algebra.presentation.relations
    oracle_dim = count_paths(quiver, relations)

    line = (
        f"criterion 1: algebra dim {rep['algebra_dim']} (oracle {oracle_dim}), "
        f"X dim {rep['x_total_dim']} series {'/'.join(rep['x_series'])}, "
        f"nu-stable {rep['nu_stable']}, annihilators "
        f"{rep['left_annihilator_dim']}/{rep['right_annihilator_dim']}, "
        f"passed {rep['passed']}, {elapsed:.1f}s"
    )
    print(line)
    assert code == 0
    assert rep["algebra_dim"] == 20 == oracle_dim
    assert all(d == 5 for d in rep["projective_dims"].values())
    assert rep["x_total_dim"] == 4
    assert rep["x_series"] == ["4", "1", "2", "3"]
    assert rep["nu_stable"] is True
    assert rep["passed"] is True
    assert rep["left_annihilator_dim"] == 0
    assert rep["right_annihilator_dim"] == 0
    assert elapsed <= 10.0


# -- criterion 2 -----------------------------------------------------------


def oracle_admissible(degrees):
    """Freshly written triple-enumeration oracle."""
    ds = frozenset(degrees)
    if 0 not in ds:
        return False
    for i in ds:
        for j in ds:
            ij = i + j in ds
            for k in ds:
                if i + j + k in ds and ij != (j + k in ds):
                    return False
    return True


def test_criterion_2_admissibility_exhaustive():
    t0 = time.time()
    others = [d for d in range(-6, 7) if d != 0]
    mismatches = 0
    checked = 0
    for bits in itertools.product((0, 1), repeat=12):
        s = {0} | {d for d, b in zip(others, bits) if b}
        checked += 1
        if is_admissible(s) != oracle_admissible(s):
            mismatches += 1
    for n in range(7):
        assert is_admissible(set(range(n + 1)))
    assert not is_admissible({0, 1, 2, 4})
    elapsed = time.time() - t0
    print(
        f"criterion 2: {checked} subsets checked, {mismatches} mismatches, "
        f"{elapsed:.1f}s"
    )
    assert mismatches == 0
    assert elapsed <= 5.0


# -- criterion 3 -----------------------------------------------------------


def test_criterion_3_annihilator_lemma_randomized():
    field = FieldSpec(5)
    rng = random.Random(0)
    factories = [a2, a3, kxx, lambda f: cyclic_nakayama(2, 2, f), lambda f: cyclic_nakayama(3, 2, f)]
    instances = 0
    failures = 0
    cases = []
    while instances < 50:
        fx = rng.choice(factories)(field)
        cat = fx.algebra.modcat
        pool = list(fx.projectives.values()) + list(fx.simples.values())

        def small_sum():
            parts = [rng.choice(pool)]
            while rng.random() < 0.5:
                cand = rng.choice(pool)
                if sum(p.total_dim for p in parts) + cand.total_dim <= 6:
                    parts.append(cand)
            return cat.direct_sum(parts).obj if len(parts) > 1 else parts[0]

        m = rng.choice(pool)
        a_obj, b_obj = small_sum(), small_sum()
        if a_obj.total_dim > 6 or b_obj.total_dim > 6:
            continue
        spec = SubcatSpec(cat, [m])
        report = lemma_ann_verify(cat, spec, a_obj, b_obj)
        if not report["ok"]:
            failures += 1
        cases.append((cat, spec, pool, a_obj, b_obj))
        instances += 1

    # two-sidedness: 200 random composite probes per ideal kind
    probe_failures = 0
    for kind in ("L", "R", "F", "I", "J"):
        done = 0
        while done < 200:
            cat, spec, pool, a_obj, b_obj = rng.choice(cases)
            sub = ideal_space(cat, spec, a_obj, b_obj, kind)
            if sub.dim == 0:
                done += 1  # the zero ideal is trivially two-sided
                continue
            space = cat.hom(a_obj, b_obj)
            coeffs = [random_element(field, rng) for _ in range(sub.dim)]
            vec = [
                sum(c * x for c, x in zip(coeffs, col)) % 5
                for col in zip(*sub.tolist())
            ]
            f = space.from_coords(vec)
            w, z = rng.choice(pool), rng.choice(pool)
            u = random_mor(cat, w, a_obj, rng)
            v = random_mor(cat, b_obj, z, rng)
            comp = u.then(f).then(v)
            if cat.hom(w, z).dim:
                target = ideal_space(cat, spec, w, z, kind)
                if not target.contains(comp.coords()):
                    probe_failures += 1
            done += 1

    print(
        f"criterion 3: {instances} lemma instances ({failures} failures), "
        f"1000 two-sidedness probes ({probe_failures} failures)"
    )
    assert failures == 0
    assert probe_failures == 0


# -- criterion 4 -----------------------------------------------------------


def random_bounded_complex(cat, projs, rng, max_len=3):
    """Random complex of projective sums with differentials solved into the
    kernel of postcomposition, so d.d = 0 by construction."""
    length = rng.randint(1, max_len)
    objs = []
    for _ in range(length):
        parts = [rng.choice(projs) for _ in range(rng.randint(1, 2))]
        objs.append(cat.direct_sum(parts).obj if len(parts) > 1 else parts[0])
    diffs = []
    prev = None
    for a, b in zip(objs, objs[1:]):
        space = cat.hom(a, b)
        if space.dim == 0:
            diffs.append(cat.zero_mor(a, b))
            prev = diffs[-1]
            continue
        if prev is None or prev.is_zero():
            candidates = Subspace.full(cat.field, space.dim)
        else:
            rows = []
            out = cat.hom(prev.src, b)
            for g in space.basis:
                rows.append(dense_coords(prev.then(g)))
            mat = Mat(cat.field, [[rows[j][i] for j in range(space.dim)] for i in range(out.dim)], out.dim, space.dim)
            candidates = Subspace.from_vectors(cat.field, space.dim, mat.kernel_basis())
        if candidates.dim == 0:
            diffs.append(cat.zero_mor(a, b))
        else:
            coeffs = [random_element(cat.field, rng) for _ in range(candidates.dim)]
            vec = [
                sum((c * x for c, x in zip(coeffs, col)), cat.field.zero)
                for col in zip(*candidates.tolist())
            ]
            diffs.append(space.from_coords([cat.field.coerce(v) for v in vec]))
        prev = diffs[-1]
    return Complex(cat, rng.randint(-2, 2), objs, diffs)


def test_criterion_4_homotopy_oracle():
    rng = random.Random(1)
    discrepancies = 0
    complexes_checked = 0
    for fx in (a2(), a3()):
        cat = fx.algebra.modcat
        projs = list(fx.projectives.values())
        for _ in range(15):
            x = random_bounded_complex(cat, projs, rng)
            y = random_bounded_complex(cat, projs, rng)
            total = homology_dims(x, y)
            for n, d in total.items():
                hc = HomComplex(cat, x, y.shift(n))
                indep = hc.cycles(0).dim - hc.boundaries(0).dim
                if indep != d:
                    discrepancies += 1
            complexes_checked += 1
    print(
        f"criterion 4: {complexes_checked} random complex pairs, "
        f"{discrepancies} homology discrepancies"
    )
    assert complexes_checked >= 30
    assert discrepancies == 0


# -- criterion 5 -----------------------------------------------------------


def test_criterion_5_kernel_equality_suite():
    failures = []
    sequences = 0

    def check(q, m, label):
        nonlocal sequences
        cert = verify_theorem1(q, m, embedding_check=False)
        sequences += 1
        for flag in ("kernels_equal", "theta_surjective", "phi_surjective", "multiplicative"):
            if not cert.flags[flag]:
                failures.append((label, flag))

    sc = worked_example_scenario()
    check(sc.q, sc.p, "worked-example")

    for n, count in ((2, 2), (3, 3), (4, 4)):
        fx = cyclic_nakayama(n, 2)
        for v in list(fx.simples)[:count]:
            q, m = d_split_sequence(fx.algebra, fx.simples[v])
            check(q, m, f"cyclic({n},2) S{v}")
    fx = kxx()
    q, m = d_split_sequence(fx.algebra, fx.simples["1"])
    check(q, m, "kxx S1")

    print(f"criterion 5: {sequences} split sequences verified, failures {failures}")
    assert sequences >= 11
    assert failures == []


# -- criterion 6 -----------------------------------------------------------


def brute_force_quotient_dims():
    """Quotient ring dimensions for the A_2 triangle, computed from raw Hom
    bases, compositions and matrix kernels only (no ideal/ring machinery)."""
    fx = a2_triangle()
    cat = fx.cat
    field = cat.field
    x, m = fx.x, fx.m
    tri = fx.triangle
    y = tri.objects[-1]

    def hom_basis(a, b):
        return cat.hom(a, b).basis

    def quotient_dim(obj):
        space = cat.hom(obj, obj)
        n = space.dim
        # left annihilator: f with f.then(h) = 0 for every h: obj -> m;
        # constraint matrix has one row per (probe, output coordinate)
        constraint = []
        for h in hom_basis(obj, m):
            per_f = [dense_coords(f.then(h)) for f in space.basis]
            for r in range(len(per_f[0])):
                constraint.append([per_f[j][r] for j in range(n)])
        if constraint:
            lmat = Mat(field, constraint, len(constraint), n)
            l_sub = Subspace.from_vectors(field, n, lmat.kernel_basis())
        else:
            l_sub = Subspace.full(field, n)
        # factoring through add(m): span of all composites obj -> m -> obj
        facs = []
        for u in hom_basis(obj, m):
            for v in hom_basis(m, obj):
                facs.append(u.then(v).coords())
        f_sub = Subspace.from_vectors(field, n, facs)
        return n - l_sub.intersect(f_sub).dim, n

    def quotient_dim_right(obj):
        space = cat.hom(obj, obj)
        n = space.dim
        constraint = []
        for h in hom_basis(m, obj):
            per_f = [dense_coords(h.then(f)) for f in space.basis]
            for r in range(len(per_f[0])):
                constraint.append([per_f[j][r] for j in range(n)])
        if constraint:
            rmat = Mat(field, constraint, len(constraint), n)
            r_sub = Subspace.from_vectors(field, n, rmat.kernel_basis())
        else:
            r_sub = Subspace.full(field, n)
        facs = []
        for u in hom_basis(obj, m):
            for v in hom_basis(m, obj):
                facs.append(u.then(v).coords())
        f_sub = Subspace.from_vectors(field, n, facs)
        return n - r_sub.intersect(f_sub).dim, n

    mx = cat.direct_sum([m, x]).obj
    ym = cat.direct_sum([y, m]).obj
    left_dim, left_total = quotient_dim(mx)
    right_dim, right_total = quotient_dim_right(ym)
    return left_dim, right_dim


def test_criterion_6_triangle_instance():
    t0 = time.time()
    fx = a2_triangle()
    cert = verify_theorem2(fx.cat, fx.cat.sigma, fx.triangle, fx.m)
    engine = (cert.ring_left.dim, cert.ring_right.dim)
    oracle = brute_force_quotient_dims()
    elapsed = time.time() - t0
    target = 1  # stated target value for both quotient ring dimensions
    status = "PASS" if engine == oracle == (target, target) and cert.passed else "FAIL"
    print(
        f"criterion 6: {status} engine dims {engine}, oracle dims {oracle}, "
        f"certificate passed {cert.passed}, {elapsed:.1f}s "
        f"(target value {target}; see notes/decisions.md)"
    )
    assert cert.passed, cert.flags
    assert engine == oracle, "engine disagrees with the brute-force oracle"
    assert elapsed <= 5.0
    assert engine == (target, target), (
        f"quotient ring dimensions are {engine} (engine and brute-force oracle "
        f"agree), not ({target}, {target}); see notes/decisions.md"
    )


# -- criterion 7 -----------------------------------------------------------


def test_criterion_7_cone_and_rotation_checks():
    failures = []
    triangles = 0
    for fx in (a2(), a3()):
        cat = KbProjCat(fx.algebra)
        stalks = {v: cat.stalk_obj(p) for v, p in fx.projectives.items()}
        probes = list(stalks.values())[:3]
        while len(probes) < 3:
            probes.append(probes[0])
        maps = []
        verts = list(stalks)
        for a in verts:
            for b in verts:
                for f in cat.hom(stalks[a], stalks[b]).basis:
                    maps.append(f)
        for f in maps:
            tri = cone_triangle(cat, f)
            for label, ang in (("cone", tri), ("rot", rotate_angle(cat, tri))):
                rep = lemma_nangle_check(cat, ang, probes, window=3)
                triangles += 1
                if not rep["ok"]:
                    failures.append((label, rep))
        ax = verify_weak_axioms(cat, cat.sigma, [cone_triangle(cat, maps[0])])
        if not ax["ok"]:
            failures.append(("axioms", ax))
    print(f"criterion 7: {triangles} triangle checks, failures {len(failures)}")
    assert triangles >= 6
    assert failures == [], failures


# -- criterion 8 -----------------------------------------------------------


def test_criterion_8_orbit_suite():
    failures = []
    fx = nakayama4()
    cat = fx.algebra.modcat
    verts = ["1", "2", "3", "4"]
    rot = QuiverTwistAuto(
        fx.algebra,
        {verts[i]: verts[(i + 1) % 4] for i in range(4)},
        {f"a{i + 1}": f"a{(i + 1) % 4 + 1}" for i in range(4)},
        order=4,
    )
    ocat = OrbitCategory(cat, rot, AdmissibleSet([0, 1, 2, 3]))
    rng = random.Random(3)
    objs = [fx.projectives["1"], fx.projectives["3"], fx.p]
    for _ in range(100):
        a, b, c, d = (rng.choice(objs) for _ in range(4))
        f = random_mor(ocat, a, b, rng)
        g = random_mor(ocat, b, c, rng)
        h = random_mor(ocat, c, d, rng)
        if not equal(f.then(g).then(h), f.then(g.then(h))):
            failures.append("associativity")

    # X is isomorphic to F^i X when both i and -i are admissible; finite
    # admissible sets never contain such a pair, so this is realized with
    # the periodic degree set matching the functor's order
    pcat = OrbitCategory(cat, rot, AdmissibleSet(None, period=4))
    for i in (1, 2, 3):
        fwd, bwd = orbit_iso_to_power(pcat, fx.projectives["1"], i)
        if not equal(fwd.then(bwd), pcat.identity(fx.projectives["1"])):
            failures.append(f"orbit iso power {i}")

    tri = a2_triangle()
    sh_ocat = OrbitCategory(tri.cat, ShiftAuto(tri.cat), AdmissibleSet([0, 1]))
    report = ideals_IJ(sh_ocat, tri.cat.sigma, tri.triangle, tri.m)
    if not (report["hypotheses_ok"] and report["I_equal"] and report["J_equal"]):
        failures.append(("ideals", report))

    print(f"criterion 8: 100 associativity triples, 3 power isos, ideals match; failures {failures}")
    assert failures == [], failures


# -- criterion 9 -----------------------------------------------------------


def test_criterion_9_deterministic_reports():
    targets = [
        ["example", "nakayama", "--seed", "0"],
        ["check-admissible", "--set", "0,1,2,3", "--seed", "0"],
        ["verify-thm2", "--seed", "0"],
    ]
    mismatched = []
    for argv in targets:
        code1, out1 = run_cli_json(argv)
        code2, out2 = run_cli_json(argv)
        if out1 != out2 or code1 != code2:
            mismatched.append(argv[0])
    print(f"criterion 9: {len(targets)} commands repeated, mismatches {mismatched}")
    assert mismatched == []
