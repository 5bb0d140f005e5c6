"""Regenerate the committed answers: expected.json and oracle/.

    python3 perfbench/make_oracle.py

Run from the root of a checkout.  Every instance the seed can draw is
verified over Q and over every prime in workloads.PRIMES; the script
stops if a certificate fails or if the dimensions differ between fields.
Theorem-1 families are computed for the first simple only: the simples of
a cyclic Nakayama algebra are rotations of one another.
"""

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads as w  # noqa: E402
from deqcert.exactla import FieldSpec  # noqa: E402


def agreed(key, make):
    """Dims of one instance, the same over Q and every prime."""
    seen = set()
    for p in (0,) + w.PRIMES:
        out = make(FieldSpec(p))
        if not out["passed"] or not all(v is True for v in out["flags"].values()):
            raise SystemExit(f"{key} over GF({p}): certificate failed {out['flags']}")
        seen.add(tuple(out["dims"]))
    if len(seen) != 1:
        raise SystemExit(f"{key}: dims differ between fields {seen}")
    print(key, list(seen.pop()), flush=True)
    return list(out["dims"])


def main():
    expected = {}
    for family in w.THM1_FAMILIES:
        vertex = None if family == "worked" else "1"
        key = w.family_key(family)
        expected[key] = agreed(key, lambda f: w.thm1_verdict(w.thm1_build(family, f, vertex)))
    for algebra in w.THM2_ALGEBRAS:
        for a, b, dim in w.thm2_pairs(w.thm2_fixture(algebra, FieldSpec(0))):
            key = w.thm2_key(algebra, (a, b))
            expected[key] = agreed(key, lambda f: w.thm2_verdict(w.thm2_build(algebra, f, (a, b), [1] * dim)))
    for phi in w.orbit_phis():
        key = w.orbit_key(phi)
        expected[key] = agreed(key, lambda f: w.orbit_verdict(w.orbit_build(f, phi)))
    with open(os.path.join(w.HERE, "expected.json"), "w") as fh:
        rows = [f"  {json.dumps(k)}: {json.dumps(expected[k])}" for k in sorted(expected)]
        fh.write("{\n" + ",\n".join(rows) + "\n}\n")

    os.makedirs(os.path.join(w.HERE, "oracle"), exist_ok=True)
    for field in ["q"] + [f"fp:{p}" for p in w.PRIMES]:
        for cmd in w.CLI_FIXED:
            argv = cmd + ["--field", field, "--json"]
            code, text = w.run_cli(argv)
            if code != 0:
                raise SystemExit(f"{' '.join(argv)}: exit {code}")
            with open(w.oracle_path(cmd, field), "w") as fh:
                fh.write(text)
            print(" ".join(argv), len(text), "bytes", flush=True)


if __name__ == "__main__":
    main()
