"""Span tracer that instruments deqcert from outside the package.

It replaces public functions and methods of the deqcert modules (the
layers) with timing wrappers.  Every call becomes a span with a name, a
start, an end, a parent and the id of the benchmark instance it ran for.
A span's self time is its duration minus the time of its child spans.

Hot spans (linear algebra, Hom spaces, module maps) are only aggregated:
keeping millions of span records would cost more memory than the run
itself.  Spans of the coarser stages are kept in memory and can be
written out as JSON lines when the run ends.
"""

import importlib
import json
import sys
import time

# Span name -> attributes of deqcert.<layer> it covers, as "function" or
# "Class.method".  The layer is the part of the name before the first dot.
SPANS = {
    "exactla.rref": ["Mat.rref"],
    "exactla.solve": ["LinSolver.solve"],
    "exactla.solver_build": ["LinSolver.__init__"],
    "exactla.matmul": ["Mat.__mul__"],
    "exactla.subspace": [
        "Subspace.from_vectors",
        "Subspace.__add__",
        "Subspace.intersect",
        "Subspace.reduce",
        "Subspace.contains",
        "Subspace.contains_subspace",
        "Subspace.quotient_basis",
    ],
    "exactla.coset": ["CosetSpace.__init__", "CosetSpace.project", "CosetSpace.lift"],
    "exactla.mat": [
        "Mat.kernel_basis",
        "Mat.solve",
        "Mat.transpose",
        "Mat.apply",
        "Mat.__add__",
        "Mat.__sub__",
        "kernel",
    ],
    "category.hom": ["FiniteCategory.hom"],
    "category.coords": ["HomSpace.coords"],
    "category.from_coords": ["HomSpace.from_coords"],
    "category.compose": ["Mor.then"],
    "category.other": [
        "FiniteCategory.direct_sum",
        "FiniteCategory.mor_from_blocks",
        "QuotientCategory.lift",
        "Mor.__add__",
        "Mor.scale",
        "Mor.eq",
    ],
    "algebra.find_isomorphism": ["find_isomorphism"],
    "algebra.kernel_module": ["kernel_module"],
    "algebra.other": [
        "path_algebra",
        "Algebra.__init__",
        "projective",
        "simple_module",
        "regular_module",
        "image_module",
        "nakayama_projective",
        "radical_layers",
        "ModuleRep.quiver_rep",
        "ModuleRep.plain_rep",
        "ModuleCategory.mor",
    ],
    "catideal.ideal_space": ["ideal_space"],
    "catideal.end_ring": ["end_ring"],
    "catideal.other": [
        "quotient_ring",
        "factorization_through",
        "right_approximation",
        "left_approximation",
        "is_right_approximation",
        "is_left_approximation",
        "SubcatSpec.member",
        "SubcatSpec.sum_of",
        "RingPresentation.to_algebra",
        "RingPresentation.opposite",
    ],
    "complexes.hom_complex": ["HomComplex.__init__"],
    "complexes.chain_map_space": ["chain_map_space"],
    "complexes.other": [
        "Complex.validate",
        "HomComplex.maps_from_vec",
        "HomComplex.vec_from_maps",
        "HomComplex.cycles",
        "HomComplex.boundaries",
        "ChainMap.then",
        "null_homotopic_space",
        "homology_dims",
        "hom_total_complex",
        "complex_in_quotient",
        "check_thm1_conditions",
    ],
    "derivedeq.theta": ["theta"],
    "derivedeq.build_tilting": ["build_tilting"],
    "derivedeq.verify": ["verify_theorem1"],
    "derivedeq.pipeline": ["nu_stable_sequence", "minimize_right_approximation"],
    "angulate.cone_triangle": ["cone_triangle"],
    "angulate.verify": ["verify_theorem2"],
    "angulate.other": [
        "KbProjCat.__init__",
        "KbProjCat.stalk_obj",
        "KbProjCat.shift_obj",
        "KbShift.mor",
    ],
    "orbit.ideals": ["ideals_IJ"],
    "orbit.verify": ["corollary_orbit_verify"],
    "orbit.other": ["OrbitCategory.__init__", "OrbitCategory.from_degree_zero", "OrbitShift.mor"],
    "presets.build": [
        "a2",
        "a3",
        "kxx",
        "cyclic_nakayama",
        "nakayama4",
        "d_split_sequence",
        "a2_triangle",
        "worked_example_scenario",
    ],
    "cli.main": ["main"],
}

# Span names whose records are only aggregated, never kept one by one.
HOT = {
    name
    for name in SPANS
    if name.split(".")[0] in ("exactla", "category")
    or name.endswith(".other")
    or name in ("catideal.ideal_space", "derivedeq.theta", "complexes.hom_complex")
}


def _count_rref_cells(tracer, args):
    mat = args[0]
    tracer.counters["exactla.rref.cells"] += mat.rows * mat.cols


def _count_hom_miss(tracer, args):
    cat, x, y = args[:3]
    if (x.key, y.key) not in cat._hom_cache:
        tracer.counters["category.hom.misses"] += 1


HOOKS = {"exactla.rref": _count_rref_cells, "category.hom": _count_hom_miss}


class Tracer:
    """Collects spans while installed; ``install``/``uninstall`` patch and
    restore the deqcert modules."""

    def __init__(self):
        self.instance = None
        self.spans = []  # kept span records, (name, start, end, parent id, instance)
        self._stack = []  # one [child time] cell per open span
        self._depth = {name: 0 for name in SPANS}
        self._kept = []  # ids of the open kept spans
        self._undo = []
        self.reset()

    def reset(self):
        """Zero the aggregates; kept span records stay."""
        self.stats = {name: [0, 0.0, 0.0] for name in SPANS}  # calls, total, self
        self.counters = {name: 0 for name in ("exactla.rref.cells", "category.hom.misses")}

    # -- patching ----------------------------------------------------------

    def install(self):
        modules = [m for n, m in sys.modules.items() if n == "deqcert" or n.startswith("deqcert.")]
        for name, attrs in SPANS.items():
            layer = importlib.import_module("deqcert." + name.split(".")[0])
            for attr in attrs:
                cls_name, _, meth = attr.rpartition(".")
                owner = getattr(layer, cls_name, None) if cls_name else layer
                raw = vars(owner).get(meth) if owner is not None else None
                if raw is None:
                    # a refactor moved it: the span reads 0 instead of the run failing
                    print(f"tracer: {layer.__name__} has no {attr}", file=sys.stderr)
                    continue
                fn = raw.__func__ if isinstance(raw, classmethod) else raw
                new = self._wrap(name, fn)
                if cls_name:
                    self._set(setattr, owner, meth, classmethod(new) if fn is not raw else new, raw)
                    continue
                # rebind the function in every module that imported it by
                # name, and in module-level tables that hold it
                for mod in modules:
                    for key, val in list(vars(mod).items()):
                        if val is fn:
                            self._set(setattr, mod, key, new, fn)
                        elif isinstance(val, dict):
                            for k2, v2 in list(val.items()):
                                if v2 is fn:
                                    self._set(dict.__setitem__, val, k2, new, fn)

    def uninstall(self):
        while self._undo:
            setter, obj, key, old = self._undo.pop()
            setter(obj, key, old)

    def _set(self, setter, obj, key, new, old):
        self._undo.append((setter, obj, key, old))
        setter(obj, key, new)

    def _wrap(self, name, fn):
        hook = HOOKS.get(name)
        keep = name not in HOT
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            if hook is not None:
                hook(tracer, args)
            stack = tracer._stack
            depth = tracer._depth
            outer = depth[name] == 0
            depth[name] += 1
            if keep:
                sid = len(tracer.spans)
                parent = tracer._kept[-1] if tracer._kept else None
                tracer.spans.append(None)
                tracer._kept.append(sid)
            cell = [0.0]
            stack.append(cell)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                depth[name] -= 1
                dur = end - start
                st = tracer.stats[name]
                st[0] += 1
                if outer:
                    st[1] += dur
                st[2] += dur - cell[0]
                if stack:
                    stack[-1][0] += dur
                if keep:
                    tracer._kept.pop()
                    tracer.spans[sid] = (name, start, end, parent, tracer.instance)

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = fn.__doc__
        return wrapper

    # -- results -----------------------------------------------------------

    def layer_self(self, layer):
        return sum(st[2] for name, st in self.stats.items() if name.split(".")[0] == layer)

    def metrics(self):
        """Per-layer metric values of everything recorded since ``reset``."""
        st = self.stats
        hom_calls = st["category.hom"][0]
        hom_misses = self.counters["category.hom.misses"]
        return {
            "exactla.self_s": self.layer_self("exactla"),
            "exactla.solve.calls": st["exactla.solve"][0],
            "exactla.solve.self_s": st["exactla.solve"][2],
            "exactla.solver_build.calls": st["exactla.solver_build"][0],
            "exactla.solver_build.self_s": st["exactla.solver_build"][2],
            "exactla.rref.calls": st["exactla.rref"][0],
            "exactla.rref.self_s": st["exactla.rref"][2],
            "exactla.rref.cells": self.counters["exactla.rref.cells"],
            "exactla.matmul.calls": st["exactla.matmul"][0],
            "exactla.subspace.self_s": st["exactla.subspace"][2],
            "exactla.coset.self_s": st["exactla.coset"][2],
            "category.self_s": self.layer_self("category"),
            "category.hom.calls": hom_calls,
            "category.hom.misses": hom_misses,
            "category.hom.hit_ratio": (hom_calls - hom_misses) / hom_calls if hom_calls else 0.0,
            "category.coords.calls": st["category.coords"][0],
            "category.from_coords.self_s": st["category.from_coords"][2],
            "category.compose.calls": st["category.compose"][0],
            "derivedeq.self_s": self.layer_self("derivedeq"),
            "derivedeq.theta.calls": st["derivedeq.theta"][0],
            "derivedeq.build_tilting.total_s": st["derivedeq.build_tilting"][1],
            "complexes.self_s": self.layer_self("complexes"),
            "complexes.hom_complex.calls": st["complexes.hom_complex"][0],
            "complexes.chain_map_space.total_s": st["complexes.chain_map_space"][1],
            "catideal.self_s": self.layer_self("catideal"),
            "catideal.ideal_space.calls": st["catideal.ideal_space"][0],
            "catideal.end_ring.total_s": st["catideal.end_ring"][1],
            "algebra.self_s": self.layer_self("algebra"),
            "algebra.find_isomorphism.calls": st["algebra.find_isomorphism"][0],
            "algebra.kernel_module.calls": st["algebra.kernel_module"][0],
            "angulate.self_s": self.layer_self("angulate"),
            "angulate.cone_triangle.calls": st["angulate.cone_triangle"][0],
            "orbit.self_s": self.layer_self("orbit"),
            "presets.total_s": st["presets.build"][1],
            "cli.self_s": self.layer_self("cli"),
        }

    def write_spans(self, path):
        with open(path, "w") as fh:
            for sid, (name, start, end, parent, instance) in enumerate(self.spans):
                rec = {"id": sid, "name": name, "start": start, "end": end, "parent": parent, "instance": instance}
                fh.write(json.dumps(rec) + "\n")
