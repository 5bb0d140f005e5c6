"""Package surface: every exported name resolves, no module (and no test
module) imports a name it never uses, and every definition in the package
is read by the package or the benchmark."""

import ast
import functools
import importlib
import inspect
import pkgutil
from collections import Counter
from pathlib import Path

import pytest

import deqcert

MODULES = ["deqcert"] + [
    f"deqcert.{info.name}" for info in pkgutil.iter_modules(deqcert.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", []) if not hasattr(module, attr)]
    assert missing == [], f"{name}.__all__ names missing attributes: {missing}"


SOURCES = sorted(Path(deqcert.__file__).resolve().parent.glob("*.py"))
TESTS = sorted(Path(__file__).resolve().parent.glob("*.py"))


@pytest.mark.parametrize(
    "path", SOURCES + TESTS, ids=[p.name for p in SOURCES] + [f"tests/{p.name}" for p in TESTS]
)
def test_no_module_imports_a_name_it_never_uses(path):
    # a name counts as used when the module reads it or lists it in __all__
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    unused = sorted((line, name) for name, line in imported.items() if name not in used)
    assert unused == [], f"{path.name} imports names it never uses (line, name): {unused}"


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_module_draws_at_random(path):
    # every check is decided exactly: no module imports random, and no
    # function takes a random generator
    tree = ast.parse(path.read_text())
    found = sorted(
        (node.lineno, "import random")
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        and any(alias.name.split(".")[0] == "random" for alias in node.names)
        or isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "random"
    ) + sorted(
        (node.lineno, f"{getattr(node, 'name', 'lambda')}(rng)")
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        for arg in ast.walk(node.args)
        if isinstance(arg, ast.arg) and arg.arg == "rng"
    )
    assert found == [], f"{path.name} draws at random (line, what): {found}"


# each category cache and the one class whose methods may read or write it
CACHE_OWNERS = {
    "_hom_cache": ("category.py", "FiniteCategory"),
    "_sum_cache": ("category.py", "FiniteCategory"),
    "_hc_cache": ("complexes.py", "ChainMapCategory"),
}


def _attributes_by_class(tree):
    """(enclosing top-level class or None, attribute name, line) of every
    attribute read or write in a module."""
    found = []
    for node in tree.body:
        owner = node.name if isinstance(node, ast.ClassDef) else None
        found += [(owner, n.attr, n.lineno) for n in ast.walk(node) if isinstance(n, ast.Attribute)]
    return found


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_module_collects_garbage_or_reaches_into_a_category_cache(path):
    # no module collects garbage, and a category's caches are touched only
    # by the class that owns them: nothing outside it clears them by hand
    tree = ast.parse(path.read_text())
    found = sorted(
        (node.lineno, "import gc")
        for node in ast.walk(tree)
        if isinstance(node, ast.Import) and any(alias.name == "gc" for alias in node.names)
        or isinstance(node, ast.ImportFrom) and node.module == "gc"
    ) + sorted(
        (line, f"{owner or path.stem}.{attr}")
        for owner, attr, line in _attributes_by_class(tree)
        if attr in CACHE_OWNERS and CACHE_OWNERS[attr] != (path.name, owner)
    )
    assert found == [], f"{path.name} collects garbage or reaches into a cache (line, what): {found}"


# a field inverse is what an elimination normalises its pivots with
ELIMINATION_CALLS = {"rref", "inv", "div"}


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_only_exactla_eliminates(path):
    # one elimination path: rref, LinSolver, kernel_basis and sparse_kernel
    # all run exactla's sparse RREF, and no other module row-reduces
    if path.name == "exactla.py":
        return
    tree = ast.parse(path.read_text())
    calls = sorted(
        (node.lineno, node.func.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ELIMINATION_CALLS
    )
    assert calls == [], f"{path.name} eliminates outside exactla (line, call): {calls}"


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_only_cli_reads_structure_constants_densely(path):
    # a ring's or an algebra's table holds only its nonzero products, keyed
    # by the pair (i, j); the dense view dense_table is built for the JSON
    # report alone, and no module indexes a table by one basis index
    tree = ast.parse(path.read_text())
    dense = sorted(
        (node.lineno, "dense_table")
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and _callee(node) == "dense_table"
    ) + sorted(
        (node.lineno, ".table[...]")
        for node in ast.walk(tree)
        if isinstance(node, ast.Subscript)
        and isinstance(node.value, ast.Attribute)
        and node.value.attr == "table"
        and not isinstance(node.slice, ast.Tuple)
    )
    if path.name == "cli.py":
        dense = [(line, call) for line, call in dense if call != "dense_table"]
    assert dense == [], f"{path.name} reads structure constants densely (line, read): {dense}"


def _callee(call):
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def _composing(tree):
    """Names that compose: then, and every function of the module whose body
    calls one of them."""
    callees = {}
    for fn in ast.walk(tree):
        if isinstance(fn, ast.FunctionDef):
            calls = {_callee(c) for c in ast.walk(fn) if isinstance(c, ast.Call)}
            callees.setdefault(fn.name, set()).update(calls)
    names = {"then"}
    while new := {name for name, calls in callees.items() if calls & names} - names:
        names |= new
    return names


def _basis_names(fn):
    """Names fn assigns from an expression that reads a .basis, as hom_ab in
    hom_ab = cat.hom(a, b).basis or hom_bases in hom_bases[t]."""
    return {
        target.id
        for node in ast.walk(fn)
        if isinstance(node, ast.Assign) and _reads_basis(node.value)
        for target in node.targets
        if isinstance(target, ast.Name)
    }


def _reads_basis(node, names=frozenset()):
    return any(
        isinstance(n, ast.Attribute) and n.attr == "basis" or isinstance(n, ast.Name) and n.id in names
        for n in ast.walk(node)
    )


def _stored(nodes):
    return {
        n.id
        for node in nodes
        for n in ast.walk(node)
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)
    }


def _looped_composites(tree):
    """(call, loops) of each composing call, loops holding (bound names,
    over a basis) of every loop and comprehension around it, outermost
    first.  A loop binds its targets and the names assigned in its body; it
    runs over a basis when its iterable reads a .basis or a name that its
    function assigns from one."""
    composing, found = _composing(tree), []

    def visit(node, loops, names):
        if isinstance(node, ast.FunctionDef):
            names = _basis_names(node)
        if isinstance(node, ast.For):
            visit(node.iter, loops, names)
            over = _reads_basis(node.iter, names)
            inner = loops + [(_stored([node.target, *node.body]), over)]
            for child in node.body:
                visit(child, inner, names)
            for child in node.orelse:
                visit(child, loops, names)
            return
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
            inner = loops
            for gen in node.generators:
                visit(gen.iter, inner, names)
                inner = inner + [(_stored([gen.target]), _reads_basis(gen.iter, names))]
                for cond in gen.ifs:
                    visit(cond, inner, names)
            for child in ast.iter_child_nodes(node):
                if not isinstance(child, ast.comprehension):
                    visit(child, inner, names)
            return
        if isinstance(node, ast.Call) and _callee(node) in composing:
            found.append((node, loops))
        for child in ast.iter_child_nodes(node):
            visit(child, loops, names)

    visit(tree, [], frozenset())
    return found


def _binder(node, loops):
    """The innermost loop that binds a name node reads, or None; a name
    belongs to the innermost loop that binds it."""
    read = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
    return max((k for k, (bound, _) in enumerate(loops) if bound & read), default=None)


def _pair_composites(tree):
    """(line, callee) of each composing call whose operands come from two
    nested loops or comprehensions, one of them over a basis (or the call
    reading a .basis)."""
    found = []
    for call, loops in _looped_composites(tree):
        read = [n for n in ast.walk(call) if isinstance(n, ast.Name)]
        binders = {_binder(name, loops) for name in read} - {None}
        if len(binders) >= 2 and (_reads_basis(call) or any(b for _, b in loops)):
            found.append((call.lineno, _callee(call)))
    return sorted(found)


def _basis_composites(tree):
    """(line, callee) of each composing call with an operand bound by a loop
    over a basis and another operand that no such loop binds: one map
    composed with a whole basis, pair by pair."""
    found = []
    for call, loops in _looped_composites(tree):
        operands = list(call.args)
        if isinstance(call.func, ast.Attribute):
            operands.append(call.func.value)
        over = [(k := _binder(op, loops)) is not None and loops[k][1] for op in operands]
        if any(over) and not all(over):
            found.append((call.lineno, _callee(call)))
    return sorted(found)


def _undeclared_terms(tree):
    """(line, what) of each lambda that composes and each .then that is not
    called, in a function that builds a MorphismEquations."""
    composing, found = _composing(tree), set()
    for fn in ast.walk(tree):
        nodes = list(ast.walk(fn)) if isinstance(fn, ast.FunctionDef) else []
        if not any(isinstance(c, ast.Call) and _callee(c) == "MorphismEquations" for c in nodes):
            continue
        called = {id(c.func) for c in nodes if isinstance(c, ast.Call)}
        for node in nodes:
            if isinstance(node, ast.Lambda) and any(
                isinstance(c, ast.Call) and _callee(c) in composing for c in ast.walk(node.body)
            ):
                found.add((node.lineno, "lambda"))
            elif isinstance(node, ast.Attribute) and node.attr == "then" and id(node) not in called:
                found.add((node.lineno, ".then"))
    return sorted(found)


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_basis_pairs_compose_through_the_table(path):
    # composites of every pair from two Hom bases come from one
    # FiniteCategory.composite_coords table, not from then pair by pair
    pairs = _pair_composites(ast.parse(path.read_text()))
    assert pairs == [], f"{path.name} composes basis pairs one by one (line, call): {pairs}"


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_a_map_composes_with_a_basis_through_the_table(path):
    # one map composed with every element of a Hom basis is one row or
    # column of a composite_coords table, and an equation's term is the
    # declared (unknown, map, side) that the table is read for, not a
    # callable that composes one basis map at a time
    tree = ast.parse(path.read_text())
    loops, terms = _basis_composites(tree), _undeclared_terms(tree)
    assert (loops, terms) == ([], []), (
        f"{path.name} composes a map with a basis one by one (line, call): {loops}, "
        f"and passes equation terms as callables (line, form): {terms}"
    )


def test_intertwiner_systems_reach_the_kernel_through_exactla():
    from deqcert import algebra, exactla

    tree = ast.parse(Path(algebra.__file__).read_text())
    (fn,) = [
        node
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "intertwiner_kernel"
    ]
    called = {
        node.func.id
        for node in ast.walk(fn)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
    }
    via_exactla = {
        name
        for name in called
        if getattr(algebra, name, None) is getattr(exactla, name, object())
        and inspect.isfunction(getattr(exactla, name))
    }
    assert via_exactla, f"intertwiner_kernel calls no exactla function: {sorted(called)}"


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_every_functor_is_a_strict_auto(path):
    # one protocol for a strict automorphism: a class with object and
    # morphism actions obj and mor subclasses category.StrictAuto
    from deqcert.category import StrictAuto

    tree = ast.parse(path.read_text())
    functors = [
        node.name
        for node in tree.body
        if isinstance(node, ast.ClassDef)
        and {"obj", "mor"}
        <= {item.name for item in node.body if isinstance(item, ast.FunctionDef)}
    ]
    module = importlib.import_module(f"deqcert.{path.stem}") if functors else None
    stray = [name for name in functors if not issubclass(getattr(module, name), StrictAuto)]
    assert stray == [], f"{path.name} has functors outside StrictAuto: {stray}"


ROOT = Path(__file__).resolve().parent.parent
READERS = sorted(p for d in ("src", "tests", "perfbench") for p in (ROOT / d).rglob("*.py"))


def _read_counts(node):
    """How often node reads each name: bare names, attributes and names it
    imports."""
    counts = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            counts[n.id] += 1
        elif isinstance(n, ast.Attribute):
            counts[n.attr] += 1
        elif isinstance(n, ast.ImportFrom):
            counts.update(alias.name for alias in n.names)
    return counts


@functools.cache
def _names_read(path):
    """Names a file reads."""
    return set(_read_counts(ast.parse(path.read_text())))


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_every_exported_name_is_read_elsewhere(path):
    # an export that no other file of the package, its tests or its
    # benchmark reads is dead surface
    exported = next(
        (
            ast.literal_eval(node.value)
            for node in ast.parse(path.read_text()).body
            if isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        ),
        [],
    )
    read = set().union(*(_names_read(p) for p in READERS if p != path))
    unread = [name for name in exported if name not in read]
    assert unread == [], f"{path.name} exports names no other file reads: {unread}"


PACKAGE_READERS = SOURCES + sorted((ROOT / "perfbench").glob("*.py"))


def _definitions(tree):
    """Each top-level function or class and each method of a module, as
    (qualified name, node); dunders are left out."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found.append((node.name, node))
        if isinstance(node, ast.ClassDef):
            found += [(f"{node.name}.{n.name}", n) for n in node.body if isinstance(n, ast.FunctionDef)]
    return [(qual, node) for qual, node in found if not node.name.startswith("__")]


def test_every_definition_is_read_by_the_package_or_the_benchmark():
    # src/ holds what a verdict runs: every function, class and method is
    # read by the package or the benchmark somewhere outside its own body,
    # and what only tests read lives in tests/ (cmd_* are dispatched by name)
    total = sum((_read_counts(ast.parse(p.read_text())) for p in PACKAGE_READERS), Counter())
    unread = []
    for path in SOURCES:
        for qual, node in _definitions(ast.parse(path.read_text())):
            name = node.name
            if not name.startswith("cmd_") and total[name] == _read_counts(node)[name]:
                unread.append(f"{path.stem}.{qual}")
    assert unread == [], f"definitions only tests read: {unread}"


def _defaulted_params(fn, is_method):
    """(name, position) of each defaulted parameter of fn, the position
    counted as a caller passes it (no self or cls), None for keyword-only."""
    args = fn.args.posonlyargs + fn.args.args
    static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in fn.decorator_list)
    first = len(args) - len(fn.args.defaults)
    skip = 1 if is_method and not static else 0
    params = [(args[i].arg, i - skip) for i in range(first, len(args))]
    params += [(a.arg, None) for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults) if d]
    return params


@functools.cache
def _calls(path):
    """(callee, positional count, keyword names, *args, **kwargs) of every
    call in a file; the callee is the bare or attribute name."""
    out = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            keywords = {k.arg for k in node.keywords}
            out.append((name, len(node.args), keywords, starred, None in keywords))
    return out


def test_every_default_is_set_by_some_caller():
    # a defaulted parameter that no caller sets has one value in use, so it
    # is a constant: some call to the function (to its class or to
    # super().__init__, for __init__) must pass it, by keyword or position
    calls = [c for p in READERS for c in _calls(p)]
    unset = []
    for path in SOURCES:
        tree = ast.parse(path.read_text())
        defs = [(None, node) for node in tree.body if isinstance(node, ast.FunctionDef)]
        for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
            defs += [(cls.name, n) for n in cls.body if isinstance(n, ast.FunctionDef)]
        for owner, fn in defs:
            names = {owner, "__init__"} if fn.name == "__init__" else {fn.name}
            for param, pos in _defaulted_params(fn, owner is not None):
                if not any(
                    name in names
                    and (param in kw or double or (pos is not None and (n_pos > pos or star)))
                    for name, n_pos, kw, star, double in calls
                ):
                    unset.append(f"{path.stem}.{owner + '.' if owner else ''}{fn.name}({param})")
    assert unset == [], f"defaulted parameters that no caller sets: {unset}"


def _calls_by_function(tree, callee):
    """(enclosing Class.function, line) of every read of the name or call of
    the attribute callee, outside import statements and its own def."""
    found = []

    def visit(node, where):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            where = f"{where}.{node.name}" if where else node.name
        if isinstance(node, ast.Name) and node.id == callee:
            found.append((where, node.lineno))
        elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) == callee:
            found.append((where, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(tree, "")
    return found


# the dense vectors that come from outside the package: a Mat's rows read
# from a document, an algebra's or a ring's unit (a dense list, as Algebra
# takes it), and the dense coordinates HomSpace.from_coords still accepts
SPARSE_BOUNDARIES = {
    "exactla.py": {"Mat.__init__"},
    "algebra.py": {"Algebra._check_axioms"},
    "derivedeq.py": {"_ring_map_witness"},
    "category.py": {"HomSpace.from_coords"},
}


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_vectors_are_sparse_past_the_input_boundaries(path):
    # one vector format: solves, coordinates, kernels and Subspace bases are
    # {index: nonzero} dicts, so a dense vector is read in only where one
    # comes from outside, and written out only by the dense views that
    # exactla defines and the JSON report in cli reads
    tree = ast.parse(path.read_text())
    allowed = SPARSE_BOUNDARIES.get(path.name, set())
    sparse = [(fn, line) for fn, line in _calls_by_function(tree, "_sparse") if fn not in allowed]
    dense = [] if path.name in ("cli.py", "exactla.py") else _calls_by_function(tree, "tolist")
    assert (sparse, dense) == ([], []), (
        f"{path.name} converts dense vectors outside the input boundaries (function, line): "
        f"{sparse}, and writes vectors out densely (function, line): {dense}"
    )
