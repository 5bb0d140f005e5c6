"""Command-line front end: run the pipelines on built-in fixtures or on a
JSON scenario document and emit human- or machine-readable reports.

Exit codes: 0 all checks passed, 1 a hypothesis or verification failed,
2 bad input, 3 an internal invariant was violated (a bug, not a failed
check).  Machine reports are deterministic: keys are sorted and no timing
information is included.  No computation draws at random; ``--seed`` is
only echoed in the nu-pipeline and example nakayama reports.
"""

import argparse
import functools
import json
import sys
import time
from fractions import Fraction

from . import presets
from .algebra import (
    ModuleRep,
    Quiver,
    dense_table,
    path_algebra,
    projective,
    radical_layers,
    regular_module,
    simple_module,
)
from .angulate import verify_theorem2
from .catideal import SubcatSpec, end_ring, ideal_space, quotient_ring, right_approximation, left_approximation
from .complexes import Complex, check_thm1_conditions
from .derivedeq import nu_stable_sequence, verify_theorem1
from .errors import HypothesisError, InputError, InternalConsistencyError
from .exactla import FieldSpec, Mat, Subspace
from .orbit import (
    AdmissibleSet,
    OrbitCategory,
    ShiftAuto,
    admissibility_witness,
    corollary_orbit_verify,
    ideals_IJ,
    yoneda_algebra,
    QuiverTwistAuto,
)

SCHEMA_VERSION = 1


# -- serialization ---------------------------------------------------------


def jsonable(x):
    if isinstance(x, Fraction):
        return int(x) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
    if isinstance(x, Mat):
        return [[jsonable(v) for v in row] for row in x.tolist()]
    if isinstance(x, dict):
        return {str(k): jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [jsonable(v) for v in x]
    if isinstance(x, Subspace):
        return {"dim": x.dim, "basis": jsonable(x.tolist())}
    if isinstance(x, (bool, int, str)) or x is None:
        return x
    return str(x)


def parse_field(text) -> FieldSpec:
    if text in (None, "q", "Q"):
        return FieldSpec(0)
    if isinstance(text, str) and text.startswith("fp:") and text[3:].isdecimal():
        if int(text[3:]):  # fp:0 is no prime field, and not another name for q
            return FieldSpec(int(text[3:]))
    raise InputError(f"unknown field spec {text!r} (use q or fp:<p>)")


# -- scenario documents ----------------------------------------------------


def parse_input(path, field_flag=None) -> dict:
    """Load and validate a scenario document; returns resolved objects.

    field_flag is the --field text: a document without "field" takes it,
    and a document with one must name the same field."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}")
    _shaped(raw, dict, "the document")
    if _integer(raw.get("schema", SCHEMA_VERSION), "schema") != SCHEMA_VERSION:
        raise InputError("unsupported schema version")
    field = parse_field(raw.get("field", field_flag))
    if field_flag is not None and parse_field(field_flag).char != field.char:
        raise InputError(
            f"--field {field_flag} differs from the document's field {raw['field']!r}"
        )
    quiver_spec = raw.get("quiver")
    if quiver_spec is None:
        raise InputError("document needs a quiver")
    arrows = _required(quiver_spec, "arrows", "quiver", list)
    if any(not isinstance(a, list) or len(a) != 3 for a in arrows):
        raise InputError("every arrow is [name, source, target]")
    quiver = Quiver(_required(quiver_spec, "vertices", "quiver", list), [tuple(a) for a in arrows])
    relations = [_shaped(r, list, "a relation") for r in _section(raw, "relations", list)]
    algebra = path_algebra(quiver, relations, field)
    doc = {"field": field, "algebra": algebra, "modules": {}, "complexes": {}, "functors": {}}
    cat = algebra.modcat
    for name, spec in _section(raw, "modules", dict).items():
        where = f"module {name!r}"
        dims = {
            str(v): _integer(d, "dimension") for v, d in _section(spec, "dims", dict, where).items()
        }
        mats = {
            arrow: _matrix(field, rows, f"{where}, arrow {arrow!r}")
            for arrow, rows in _section(spec, "mats", dict, where).items()
        }
        doc["modules"][name] = ModuleRep.quiver_rep(algebra, dims, mats, name=name)
    for name, spec in _section(raw, "complexes", dict).items():
        where = f"complex {name!r}"
        objs = [_resolve_module(doc, algebra, n) for n in _required(spec, "objects", name, list)]
        diff_specs = _section(spec, "diffs", list, where)
        if len(diff_specs) >= max(len(objs), 1):
            raise InputError(f"{where} has more differentials than pairs of objects")
        diffs = []
        for i, blocks in enumerate(diff_specs):
            blocks = {
                str(v): _matrix(field, rows, f"{where}, differential {i}, vertex {v!r}")
                for v, rows in _shaped(blocks, dict, f"{where}, differential {i}").items()
            }
            diffs.append(cat.mor(objs[i], objs[i + 1], blocks))
        doc["complexes"][name] = Complex(cat, _integer(spec.get("lo", 0), "lo"), objs, diffs)
    for name, spec in _section(raw, "functors", dict).items():
        if _shaped(spec, dict, f"functor {name!r}").get("type") != "quiver-twist":
            raise InputError("only quiver-twist functors are accepted in documents")
        doc["functors"][name] = QuiverTwistAuto(
            algebra,
            {str(k): str(v) for k, v in _required(spec, "vertices", name, dict).items()},
            {str(k): str(v) for k, v in _required(spec, "arrows", name, dict).items()},
            _integer(_required(spec, "order", name), "order"),
        )
    return doc


def _shaped(value, kind, where):
    """value, if it is a kind: dict for a JSON object, list for an array."""
    if not isinstance(value, kind):
        raise InputError(f"{where} must be a JSON {'object' if kind is dict else 'array'}")
    return value


def _section(spec, key, kind, where="the document"):
    """spec[key] of the given shape, empty when absent; spec must be an object."""
    return _shaped(_shaped(spec, dict, where).get(key, kind()), kind, f"{key!r} in {where}")


def _matrix(field, rows, where):
    if not all(isinstance(row, list) for row in _shaped(rows, list, where)):
        raise InputError(f"{where}: every matrix row must be a JSON array")
    return Mat(field, rows)


def _required(spec, key, where, kind=object):
    if not isinstance(spec, dict) or key not in spec:
        raise InputError(f"{where!r} in the document needs {key!r}")
    return _shaped(spec[key], kind, f"{key!r} of {where!r}")


def _integer(value, what):
    """An integer read from the document; a bool or a non-integral number is not one."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise InputError(f"{what} {value!r} is not an integer")
    try:
        return int(value)
    except (TypeError, ValueError):
        raise InputError(f"{what} {value!r} is not an integer") from None


_PRESETS = {
    "a2": presets.a2,
    "a3": presets.a3,
    "kxx": presets.kxx,
    "nakayama4": presets.nakayama4,
}


def _load_context(args):
    """Either an input document or a named preset bundle."""
    if args.input:
        return parse_input(args.input, args.field)
    field = parse_field(args.field)
    name = args.algebra or "a2"
    if name not in _PRESETS:
        raise InputError(f"unknown preset algebra {name!r}")
    fx = _PRESETS[name](field)
    doc = {"field": field, "algebra": fx.algebra, "modules": {}, "complexes": {}, "functors": {}}
    for v, p in fx.projectives.items():
        doc["modules"][f"P{v}"] = p
    for v, s in fx.simples.items():
        doc["modules"][f"S{v}"] = s
    if hasattr(fx, "y"):
        doc["modules"]["Y"] = fx.y
    if hasattr(fx, "p"):
        doc["modules"]["P"] = fx.p
    doc["modules"]["A"] = regular_module(fx.algebra).obj
    return doc


def _resolve_module(doc, algebra, name):
    if not isinstance(name, str):
        raise InputError(f"module name {name!r} is not a string")
    if name in doc["modules"]:
        return doc["modules"][name]
    if name.startswith("P") and name[1:] in algebra.vertices():
        return projective(algebra, name[1:])
    if name.startswith("S") and name[1:] in algebra.vertices():
        return simple_module(algebra, name[1:])
    raise InputError(f"unknown module name {name!r}")


# -- commands --------------------------------------------------------------


def cmd_check_admissible(args):
    degrees = _parse_int_set(args.set)
    witness = admissibility_witness(degrees) if 0 in degrees else None
    ok = 0 in degrees and witness is None
    report = {
        "command": "check-admissible",
        "set": sorted(degrees),
        "admissible": ok,
        "witness": witness,
    }
    return report, 0 if ok else 1


def cmd_hom(args):
    doc = _load_context(args)
    algebra = doc["algebra"]
    m = _resolve_module(doc, algebra, args.m)
    n = _resolve_module(doc, algebra, args.n)
    space = algebra.modcat.hom(m, n)
    return {"command": "hom", "m": args.m, "n": args.n, "dim": space.dim}, 0


def cmd_ideal(args):
    doc = _load_context(args)
    algebra = doc["algebra"]
    cat = algebra.modcat
    gen = _resolve_module(doc, algebra, args.m)
    x = _resolve_module(doc, algebra, args.x)
    y = _resolve_module(doc, algebra, args.y)
    spec = SubcatSpec(cat, [gen])
    sub = ideal_space(cat, spec, x, y, args.kind)
    report = {
        "command": "ideal",
        "kind": args.kind,
        "m": args.m,
        "x": args.x,
        "y": args.y,
        "hom_dim": cat.hom(x, y).dim,
        "ideal": jsonable(sub),
    }
    return report, 0


def cmd_approx(args):
    doc = _load_context(args)
    algebra = doc["algebra"]
    cat = algebra.modcat
    gen = _resolve_module(doc, algebra, args.m)
    x = _resolve_module(doc, algebra, args.x)
    spec = SubcatSpec(cat, [gen])
    if args.side == "right":
        data, f = right_approximation(cat, spec, x)
    else:
        data, f = left_approximation(cat, spec, x)
    report = {
        "command": "approx",
        "side": args.side,
        "m": args.m,
        "x": args.x,
        "summands": len(data.summands),
        "source_dim": f.src.total_dim,
        "target_dim": f.tgt.total_dim,
    }
    return report, 0


def cmd_end_ring(args):
    doc = _load_context(args)
    algebra = doc["algebra"]
    cat = algebra.modcat
    obj = _resolve_module(doc, algebra, args.obj)
    if args.quotient:
        if not args.m:
            raise InputError("--quotient needs --m")
        gen = _resolve_module(doc, algebra, args.m)
        spec = SubcatSpec(cat, [gen])
        sub = ideal_space(cat, spec, obj, obj, args.quotient)
        ring = quotient_ring(cat, obj, sub)
    else:
        ring = end_ring(cat, obj)
    report = {
        "command": "end-ring",
        "obj": args.obj,
        "quotient": args.quotient,
        "dim": ring.dim,
        "table": jsonable(dense_table(ring)),
    }
    return report, 0


def cmd_check_thm1(args):
    doc = _load_context(args)
    q = doc["complexes"].get(args.complex)
    if q is None:
        raise InputError(f"unknown complex {args.complex!r}")
    m = _resolve_module(doc, doc["algebra"], args.m)
    rep = check_thm1_conditions(q, m)
    report = {"command": "check-thm1", "complex": args.complex, "m": args.m}
    report.update({k: jsonable(v) for k, v in rep.items()})
    return report, 0 if rep["ok"] else 1


def cmd_verify_thm1(args):
    doc = _load_context(args)
    q = doc["complexes"].get(args.complex)
    if q is None:
        raise InputError(f"unknown complex {args.complex!r}")
    m = _resolve_module(doc, doc["algebra"], args.m)
    cert = verify_theorem1(q, m)
    report = _certificate_report("verify-thm1", cert)
    return report, 0 if cert.passed else 1


def cmd_nu_pipeline(args):
    doc = _load_context(args)
    algebra = doc["algebra"]
    p = _resolve_module(doc, algebra, args.p)
    y = _resolve_module(doc, algebra, args.y)
    q = nu_stable_sequence(p, y, steps=args.steps, max_steps=args.max_steps)
    x = q.obj(0)
    cert = verify_theorem1(q, p)
    report = _certificate_report("nu-pipeline", cert)
    report.update(
        {
            "x_dims": jsonable({s: x.dims[s] for s in x.slots}),
            "x_total_dim": x.total_dim,
            "sequence_dims": [q.obj(i).total_dim for i in q.degrees()],
            "seed": args.seed,
        }
    )
    return report, 0 if cert.passed else 1


def cmd_verify_thm2(args):
    field = parse_field(args.field)
    fx = presets.a2_triangle(field)
    cert = verify_theorem2(fx.cat, fx.cat.sigma, fx.triangle, fx.m)
    report = _certificate_report("verify-thm2", cert)
    report["instance"] = "a2-triangle"
    return report, 0 if cert.passed else 1


def cmd_orbit_yoneda(args):
    doc = _load_context(args)
    algebra = doc["algebra"]
    x = _resolve_module(doc, algebra, args.x)
    functor = doc["functors"].get(args.functor) if args.functor else None
    if functor is None:
        raise InputError("orbit-yoneda needs a functor from the input document")
    phi = AdmissibleSet(_parse_int_set(args.phi))
    ring = yoneda_algebra(algebra.modcat, x, functor, phi)
    return {
        "command": "orbit-yoneda",
        "x": args.x,
        "phi": list(phi),
        "dim": ring.dim,
        "table": jsonable(dense_table(ring)),
    }, 0


def cmd_orbit_verify(args):
    field = parse_field(args.field)
    fx = presets.a2_triangle(field)
    phi = AdmissibleSet(_parse_int_set(args.phi or "0,1"))
    ocat = OrbitCategory(fx.cat, ShiftAuto(fx.cat), phi)
    rep = ideals_IJ(ocat, fx.cat.sigma, fx.triangle, fx.m)
    report = {
        "command": "orbit-verify",
        "instance": "a2-shift",
        "phi": list(phi),
        "hypotheses_ok": rep["hypotheses_ok"],
        "I_equal": rep["I_equal"],
        "J_equal": rep["J_equal"],
        "I_dim": rep["I"].dim if rep["I"] is not None else None,
        "J_dim": rep["J"].dim if rep["J"] is not None else None,
    }
    ok = bool(rep["hypotheses_ok"] and rep["I_equal"] and rep["J_equal"])
    if ok:
        cert = corollary_orbit_verify(ocat, fx.cat.sigma, fx.triangle, fx.m)
        report.update(_certificate_report("orbit-verify", cert))
        report["command"] = "orbit-verify"
        ok = cert.passed
    return report, 0 if ok else 1


def cmd_example(args):
    name = args.name
    if name in ("nakayama", "nakayama4"):
        return _example_nakayama(args)
    if name == "a2-triangle":
        return cmd_verify_thm2(args)
    raise InputError(f"unknown example {name!r} (try: nakayama, a2-triangle)")


def _example_nakayama(args):
    field = parse_field(args.field)
    fx = presets.nakayama4(field)
    algebra = fx.algebra
    cat = algebra.modcat
    q = nu_stable_sequence(fx.p, fx.y, steps=2)
    x = q.obj(0)
    cert = verify_theorem1(q, fx.p)
    spec = SubcatSpec(cat, [fx.p])
    px = cat.direct_sum([fx.p, x]).obj
    py = cat.direct_sum([fx.p, fx.y]).obj
    l_dim = ideal_space(cat, spec, px, px, "L").dim
    r_dim = ideal_space(cat, spec, py, py, "R").dim
    report = _certificate_report("example", cert)
    report.update(
        {
            "example": "nakayama",
            "algebra_dim": algebra.dim,
            "projective_dims": {v: projective(algebra, v).total_dim for v in algebra.vertices()},
            "x_total_dim": x.total_dim,
            "x_series": ["/".join(sorted(layer)) for layer in radical_layers(x)],
            # the pipeline refuses to run unless the Nakayama transform of
            # P is isomorphic to P, so reaching this point certifies it
            "nu_stable": True,
            "left_annihilator_dim": l_dim,
            "right_annihilator_dim": r_dim,
            "seed": args.seed,
        }
    )
    ok = cert.passed and l_dim == 0 and r_dim == 0
    return report, 0 if ok else 1


def _certificate_report(command, cert):
    return {
        "command": command,
        "flags": jsonable(cert.flags),
        "passed": cert.passed,
        "ring_left_dim": cert.ring_left.dim,
        "ring_right_dim": cert.ring_right.dim,
        "ring_left_table": jsonable(dense_table(cert.ring_left)),
        "ring_right_table": jsonable(dense_table(cert.ring_right)),
        "end_cb_dim": cert.data.get("end_cb_dim"),
        "kernel_dim": cert.data.get("kernel_dim"),
    }


def _parse_int_set(text):
    try:
        return {int(tok) for tok in str(text).split(",") if tok.strip() != ""}
    except ValueError:
        raise InputError(f"bad integer set {text!r}")


# -- entry point -----------------------------------------------------------


@functools.cache
def build_parser():
    """The parser, built once; main runs the command ``name`` by looking up
    ``cmd_<name>`` in this module when it is called."""
    parser = argparse.ArgumentParser(prog="deqcert", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, scenario=True):
        p.add_argument("--field", help="q or fp:<p> (default: the document's field, else q)")
        p.add_argument(
            "--seed", type=int, default=0, help="echoed in some reports; no computation reads it"
        )
        p.add_argument("--json", action="store_true", help="machine report on stdout")
        if scenario:  # commands with a built-in instance read neither
            p.add_argument("--input", help="scenario document (JSON)")
            p.add_argument("--algebra", help="preset algebra name")
        return p

    p = sub.add_parser("check-admissible")
    common(p, scenario=False)
    p.add_argument("--set", required=True, help="comma-separated degrees")

    p = common(sub.add_parser("hom"))
    p.add_argument("--m", required=True)
    p.add_argument("--n", required=True)

    p = common(sub.add_parser("ideal"))
    p.add_argument("--m", required=True, help="subcategory generator")
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--kind", default="L", choices=["L", "R", "F", "I", "J"])

    p = common(sub.add_parser("approx"))
    p.add_argument("--m", required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--side", default="right", choices=["left", "right"])

    p = common(sub.add_parser("end-ring"))
    p.add_argument("--obj", required=True)
    p.add_argument("--quotient", choices=["L", "R", "I", "J"])
    p.add_argument("--m", help="generator for the quotient ideal")

    p = common(sub.add_parser("check-thm1"))
    p.add_argument("--complex", required=True)
    p.add_argument("--m", required=True)

    p = common(sub.add_parser("verify-thm1"))
    p.add_argument("--complex", required=True)
    p.add_argument("--m", required=True)

    p = common(sub.add_parser("nu-pipeline"))
    p.add_argument("--p", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--max-steps", type=int, default=16)

    p = common(sub.add_parser("verify-thm2"), scenario=False)

    p = common(sub.add_parser("orbit-yoneda"))
    p.add_argument("--x", required=True)
    p.add_argument("--functor", required=True)
    p.add_argument("--phi", required=True)

    p = common(sub.add_parser("orbit-verify"), scenario=False)
    p.add_argument("--phi", default="0,1")

    p = common(sub.add_parser("example"), scenario=False)
    p.add_argument("name")

    return parser


def main(argv=None):
    """Run one command and return its exit code.

    A command's categories hold no reference back to themselves, so they
    are freed when the command returns (notes/decisions.md, "Who owns
    what")."""
    args = build_parser().parse_args(argv)
    t0 = time.time()
    try:
        report, code = globals()["cmd_" + args.command.replace("-", "_")](args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except HypothesisError as exc:
        print(f"hypothesis failure: {exc}", file=sys.stderr)
        return 1
    except InternalConsistencyError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    if getattr(args, "json", False):
        print(json.dumps(report, sort_keys=True, indent=2))
    else:
        for key in sorted(report):
            print(f"{key}: {report[key]}")
        print(f"elapsed: {time.time() - t0:.2f}s")
    return code


if __name__ == "__main__":
    sys.exit(main())
