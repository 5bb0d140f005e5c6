"""The benchmark's workloads: instances drawn from a seed, the verdict call
for each, and the check of its output against committed answers.

Every instance meets its theorem's hypotheses, so the known answer is
"passed, every flag true".  The certificate dimensions must also match
``expected.json`` for Q and for GF(p) alike, and fixed-step CLI commands
must print exactly the bytes stored under ``oracle/``.
"""

import contextlib
import io
import itertools
import json
import os
import random

from deqcert import angulate, cli, derivedeq, orbit, presets
from deqcert.category import Mor
from deqcert.exactla import FieldSpec

HERE = os.path.dirname(os.path.abspath(__file__))

# one prime below 2^7 and two above 2^15
PRIMES = (101, 32771, 65521)

# Theorem-1 families: the criterion-5 suite plus cyclic_nakayama(5, 2), the
# top of the scaling curve.  cyclic_nakayama(3, 3) (12 s over Q) is left out
# to keep a thm1-q run near 25 s.
THM1_FAMILIES = ("worked", (2, 2), (3, 2), (4, 2), "kxx", (5, 2))
# Theorem-2 algebras: a3 and cyclic Nakayama algebras cyclic_nakayama(n, l).
THM2_ALGEBRAS = ("a3", (2, 2), (3, 2), (4, 2), (2, 3), (3, 3), (4, 3))

CLI_FIXED = (["example", "nakayama"], ["verify-thm2"], ["orbit-verify"])
CLI_PIPELINE = ["nu-pipeline", "--algebra", "nakayama4", "--p", "P", "--y", "Y"]


class WrongAnswer(Exception):
    """A verdict or checked output differs from the known answer."""


class Instance:
    """One verdict: ``build()`` makes its inputs (set-up), ``verdict(state)``
    is the timed call, ``check(result)`` raises WrongAnswer if it is wrong."""

    def __init__(self, label, build, verdict, check):
        self.label = label
        self.build = build
        self.verdict = verdict
        self.check = check


def load_expected():
    with open(os.path.join(HERE, "expected.json")) as fh:
        return json.load(fh)


def oracle_path(cmd, field):
    """The committed stdout of ``cmd --field field --json``."""
    return os.path.join(HERE, "oracle", "%s.%s.json" % ("-".join(cmd), field.replace(":", "")))


def field_name(field):
    return "q" if field.char == 0 else f"fp:{field.char}"


# -- certificate summaries and checks ---------------------------------------


def summary(cert):
    return {
        "passed": cert.passed,
        "flags": dict(cert.flags),
        "dims": [cert.data["end_cb_dim"], cert.data["kernel_dim"], cert.ring_left.dim, cert.ring_right.dim],
    }


def cert_check(expected, key):
    """The certificate passes with every flag true and the committed dims."""

    def check(out):
        bad = sorted(k for k, v in out["flags"].items() if v is not True)
        if not out["passed"] or bad:
            raise WrongAnswer(f"{key}: certificate failed, flags {bad}")
        if out["dims"] != expected[key]:
            raise WrongAnswer(f"{key}: dims {out['dims']}, expected {expected[key]}")

    return check


# -- Theorem 1 ---------------------------------------------------------------


def family_key(family):
    return family if isinstance(family, str) else "cyclic_nakayama(%d,%d)" % family


def thm1_build(family, field, vertex):
    """(complex, m) for a Theorem-1 instance; vertex picks the simple."""
    if family == "worked":
        sc = presets.worked_example_scenario(field)
        return sc.q, sc.p
    fx = presets.kxx(field) if family == "kxx" else presets.cyclic_nakayama(*family, field)
    return presets.d_split_sequence(fx.algebra, fx.simples[vertex])


def thm1_verdict(state):
    q, m = state
    return summary(derivedeq.verify_theorem1(q, m, embedding_check=False))


def thm1_instances(rng, field, expected):
    out = []
    for family in THM1_FAMILIES:
        if family == "worked":
            vertex = None
        elif family == "kxx":
            vertex = "1"
        else:
            vertex = str(rng.randint(1, family[0]))
        key = family_key(family)
        label = f"{key}/S{vertex}/{field_name(field)}" if vertex else f"{key}/{field_name(field)}"
        out.append(
            Instance(
                label,
                lambda f=family, v=vertex: thm1_build(f, field, v),
                thm1_verdict,
                cert_check(expected, key),
            )
        )
    return out


# -- Theorem 2 and the orbit corollary -----------------------------------------


def thm2_fixture(algebra, field):
    return presets.a3(field) if algebra == "a3" else presets.cyclic_nakayama(*algebra, field)


def thm2_pairs(fx):
    """(a, b, dim Hom(P_a, P_b)) for distinct vertices with nonzero Hom."""
    base = fx.algebra.modcat
    ps = fx.projectives
    dims = [(a, b, base.hom(ps[a], ps[b]).dim) for a in ps for b in ps if a != b]
    return [t for t in dims if t[2]]


def orbit_phis():
    """Admissible degree sets inside [-3, 3] with at most four elements."""
    return [
        s
        for r in range(1, 5)
        for s in itertools.combinations(range(-3, 4), r)
        if 0 in s and orbit.is_admissible(set(s))
    ]


def thm2_build(algebra, field, pair, coeffs):
    """The cone triangle of a nonzero map P_a -> P_b between stalk complexes
    in the homotopy category of projectives."""
    fx = thm2_fixture(algebra, field)
    cat = angulate.KbProjCat(fx.algebra)
    pa, pb = fx.projectives[pair[0]], fx.projectives[pair[1]]
    f = fx.algebra.modcat.hom(pa, pb).from_coords([field.coerce(c) for c in coeffs])
    x, m = cat.stalk_obj(pa), cat.stalk_obj(pb)
    return cat, angulate.cone_triangle(cat, Mor(cat, x, m, {0: f})), m


def thm2_verdict(state):
    cat, tri, m = state
    return summary(angulate.verify_theorem2(cat, cat.sigma, tri, m))


def orbit_build(field, phi):
    fx = presets.a2_triangle(field)
    ocat = orbit.OrbitCategory(fx.cat, orbit.ShiftAuto(fx.cat), orbit.AdmissibleSet(list(phi)))
    return ocat, fx


def orbit_verdict(state):
    ocat, fx = state
    rep = orbit.ideals_IJ(ocat, fx.cat.sigma, fx.triangle, fx.m)
    out = summary(orbit.corollary_orbit_verify(ocat, fx.cat.sigma, fx.triangle, fx.m))
    for flag in ("hypotheses_ok", "I_equal", "J_equal"):
        out["flags"][flag] = rep[flag]
    return out


def thm2_key(algebra, pair):
    name = algebra if algebra == "a3" else "cyclic_nakayama(%d,%d)" % algebra
    return f"{name}/P{pair[0]}->P{pair[1]}"


def orbit_key(phi):
    return "a2_triangle/phi=" + ",".join(map(str, phi))


def rotation_classes(algebra, pairs):
    """Pairs grouped into classes of isomorphic instances: rotating the
    cyclic quiver of cyclic_nakayama(n, l) maps (a, b) to (a+1, b+1).  a3
    has no such symmetry.  Drawing within a class keeps the work of a pass
    the same for every seed."""
    classes = {}
    for a, b, dim in pairs:
        key = (a, b) if algebra == "a3" else (int(b) - int(a)) % algebra[0]
        classes.setdefault(key, []).append((a, b, dim))
    return [classes[k] for k in sorted(classes)]


def q_and_prime(rng):
    """Q, then GF(p) with p drawn when the loop gets there."""
    yield FieldSpec(0)
    yield FieldSpec(rng.choice(PRIMES))


def angles_instances(rng, expected):
    out = []
    for algebra in THM2_ALGEBRAS:
        for members in rotation_classes(algebra, thm2_pairs(thm2_fixture(algebra, FieldSpec(0)))):
            for field in q_and_prime(rng):
                a, b, dim = rng.choice(members)
                coeffs = [rng.randint(1, 9) for _ in range(dim)]
                key = thm2_key(algebra, (a, b))
                out.append(
                    Instance(
                        f"{key}/{field_name(field)}",
                        lambda al=algebra, f=field, p=(a, b), c=coeffs: thm2_build(al, f, p, c),
                        thm2_verdict,
                        cert_check(expected, key),
                    )
                )
    # one degree set of each size per field: the size sets the work
    phis = orbit_phis()
    for size in sorted({len(s) for s in phis}):
        for field in q_and_prime(rng):
            phi = rng.choice([s for s in phis if len(s) == size])
            key = orbit_key(phi)
            out.append(
                Instance(
                    f"{key}/{field_name(field)}",
                    lambda f=field, p=phi: orbit_build(f, p),
                    orbit_verdict,
                    cert_check(expected, key),
                )
            )
    return out


# -- CLI -----------------------------------------------------------------------


def run_cli(argv):
    """cli.main in process; returns (exit code, stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def oracle_check(argv, path):
    with open(path) as fh:
        want = fh.read()

    def check(out):
        code, text = out
        if code != 0 or text != want:
            raise WrongAnswer(f"{' '.join(argv)}: exit {code}, output differs from the oracle")

    return check


def pipeline_check(argv):
    def check(out):
        code, text = out
        rep = json.loads(text)
        bad = sorted(k for k, v in rep["flags"].items() if v is not True)
        if code != 0 or not rep["passed"] or bad:
            raise WrongAnswer(f"{' '.join(argv)}: exit {code}, flags {bad}")

    return check


def cli_instances(rng):
    out = []
    for field in ("q", f"fp:{rng.choice(PRIMES)}"):
        for cmd in CLI_FIXED + (CLI_PIPELINE,):
            argv = cmd + ["--field", field, "--json"]
            check = pipeline_check(argv) if cmd is CLI_PIPELINE else oracle_check(argv, oracle_path(cmd, field))
            out.append(Instance(" ".join(argv), lambda a=argv: a, run_cli, check))
    return out


# -- workloads -------------------------------------------------------------------


def instances(workload, seed):
    """The instance list of a workload; the seed draws every choice."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "thm1-q":
        return thm1_instances(rng, FieldSpec(0), load_expected())
    if workload == "thm1-fp":
        return thm1_instances(rng, FieldSpec(rng.choice(PRIMES)), load_expected())
    if workload == "angles":
        return angles_instances(rng, load_expected())
    if workload == "cli":
        return cli_instances(rng)
    raise ValueError(f"unknown workload {workload!r}")

