"""Exact linear algebra: matrices, kernels, subspaces, quotient bases."""

import random
from fractions import Fraction

import pytest

from deqcert.errors import InputError
from deqcert.exactla import (
    QQ,
    FieldSpec,
    LinSolver,
    Mat,
    Subspace,
    _rref_rows,
    _sparse,
    kernel,
)

from draws import random_element


def rref(a):
    """The reduced row echelon form of a, its zero rows last, and its pivot
    columns, read off the one elimination _rref_rows."""
    pivots, reduced, _ = _rref_rows(a.field, list(map(dict, a.sparse_rows)))
    reduced += [{} for _ in range(a.rows - len(pivots))]
    return Mat._of(a.field, reduced, a.rows, a.cols), pivots


def rand_mat(field, rows, cols, rng):
    data = [[random_element(field, rng) for _ in range(cols)] for _ in range(rows)]
    return Mat(field, data, rows, cols)  # the shape holds for 0 rows or 0 columns too


def dense(vec, n):
    """A {index: nonzero} vector written out with its zeros, after checking
    that it stores no zero."""
    assert all(vec.values()), vec
    out = [0] * n
    for i, x in vec.items():
        out[i] = x
    return out


def is_exact(field, v):
    """An exact field element: an int, or over Q a Fraction; never a float or a bool."""
    if isinstance(v, bool):
        return False
    return isinstance(v, (int, Fraction)) if field.char == 0 else isinstance(v, int)


def test_field_spec_basics():
    q = FieldSpec(0)
    f5 = FieldSpec(5)
    assert q.coerce("2/3") == Fraction(2, 3)
    assert f5.coerce("2/3") == f5.div(2, 3)
    assert f5.mul(f5.inv(3), 3) == 1
    with pytest.raises(InputError):
        FieldSpec(6)
    with pytest.raises(ZeroDivisionError):
        f5.inv(0)


def test_rationals_are_ints_unless_a_denominator_remains():
    q, f5 = FieldSpec(0), FieldSpec(5)
    for field in (q, f5):
        assert type(field.zero) is int and type(field.one) is int
        for flag in (True, False):
            with pytest.raises(InputError):
                field.coerce(flag)
    two = q.coerce(Fraction(4, 2))
    assert type(two) is int and two == 2
    assert type(q.coerce("6/3")) is int and type(q.coerce(-7)) is int
    three = q.inv(Fraction(1, 3))
    assert type(three) is int and three == 3
    assert type(q.inv(-1)) is int and q.inv(-1) == -1
    half = q.inv(2)
    assert type(half) is Fraction and half == Fraction(1, 2)
    with pytest.raises(InputError):
        q.coerce(0.5)


def test_rref_and_solve_return_integral_rationals_as_ints():
    # a pivot of 2 makes every later entry a Fraction during elimination
    red, pivots = rref(Mat(QQ, [[2, 4], [1, 1]]))
    assert pivots == [0, 1]
    assert all(type(x) is int for row in red.tolist() for x in row), red.tolist()
    x = LinSolver(Mat(QQ, [[2, 0], [0, 1]])).solve({0: 2})
    assert x == {0: 1} and all(type(v) is int for v in x.values()), x
    half = LinSolver(Mat(QQ, [[2, 0], [0, 1]])).solve({0: 1})
    assert half == {0: Fraction(1, 2)} and type(half[0]) is Fraction


def test_products_return_integral_rationals_as_ints():
    prod = Mat(QQ, [[Fraction(1, 2)]]) * Mat(QQ, [[2]])
    assert prod.tolist() == [[1]] and type(prod.tolist()[0][0]) is int, prod.tolist()
    img = Mat(QQ, [[Fraction(1, 2)]]).apply({0: 2})
    assert img == {0: 1} and type(img[0]) is int, img
    mixed = Mat(QQ, [[Fraction(1, 3), 1], [1, 0]]) * Mat(QQ, [[3, 0], [0, Fraction(1, 2)]])
    assert mixed.tolist() == [[1, Fraction(1, 2)], [3, 0]]
    assert [type(x) for row in mixed.tolist() for x in row] == [int, Fraction, int, int]
    half = Mat(QQ, [[Fraction(1, 2)]])
    for out in (half + half, Mat(QQ, [[Fraction(3, 2)]]) - half, half.scale(2)):
        assert out.tolist() == [[1]] and type(out.tolist()[0][0]) is int, out.tolist()


def test_prime_field_inverses_exhaustive():
    f7 = FieldSpec(7)
    for a in range(1, 7):
        assert f7.mul(a, f7.inv(a)) == 1


def test_mat_arithmetic():
    q = FieldSpec(0)
    a = Mat(q, [[1, 2], [3, 4]])
    b = Mat(q, [[0, 1], [1, 0]])
    assert (a * b) == Mat(q, [[2, 1], [4, 3]])
    assert (a + b - b) == a
    assert (-a + a).is_zero()
    assert a.scale(2) == Mat(q, [[2, 4], [6, 8]])
    assert a.transpose() == Mat(q, [[1, 3], [2, 4]])
    assert Mat.from_columns(q, a.transpose().sparse_rows, 2) == a
    # a matrix with no rows keeps its columns both ways
    empty = Mat.from_columns(q, [{}, {}, {}], 0)
    assert empty.shape == (0, 3) and empty.transpose().tolist() == [[], [], []]
    assert a.apply({0: 1}) == {0: Fraction(1), 1: Fraction(3)}
    assert a.apply({}) == {} and Mat(q, [[1, 1], [0, 1]]).apply({0: 1, 1: -1}) == {1: -1}


def test_rank_nullity_random():
    rng = random.Random(0)
    for field in (FieldSpec(0), FieldSpec(5)):
        for _ in range(25):
            rows, cols = rng.randint(1, 5), rng.randint(1, 5)
            a = rand_mat(field, rows, cols, rng)
            ker = a.kernel_basis()
            assert a.rank() + len(ker) == cols
            for vec in ker:
                assert vec and all(vec.values()) and a.apply(vec) == {}


def test_rref_is_idempotent():
    rng = random.Random(1)
    q = FieldSpec(0)
    for _ in range(10):
        a = rand_mat(q, 4, 5, rng)
        red, pivots = rref(a)
        red2, pivots2 = rref(red)
        assert red == red2 and pivots == pivots2


def test_solve_consistent_and_inconsistent():
    q = FieldSpec(0)
    a = Mat(q, [[1, 1], [0, 1], [1, 2]])
    b = a.apply({0: 3, 1: -2})
    assert b == {0: 1, 1: -2, 2: -1}
    x = LinSolver(a).solve(b)
    assert x == {0: 3, 1: -2} and a.apply(x) == b
    assert LinSolver(a).solve({0: 1}) is None  # rows force x+y=1, y=0, x+2y=0


def test_lin_solver_matches_direct_solve():
    rng = random.Random(2)
    f5 = FieldSpec(5)
    for _ in range(20):
        a = rand_mat(f5, 3, 4, rng)
        solver = LinSolver(a)
        target = a.apply(_sparse([random_element(f5, rng) for _ in range(4)]))
        x = solver.solve(target)
        assert x is not None and a.apply(x) == target


def test_lin_solver_returns_the_solution_zero_on_free_columns():
    # pins the particular solution that the JSON reports are built from
    rng = random.Random(4)
    for field in (FieldSpec(0), FieldSpec(2), FieldSpec(101)):
        past_rank_only = 0
        for _ in range(80):
            rows, cols = rng.randint(0, 6), rng.randint(0, 6)
            k = rng.randint(0, min(rows, cols))
            # rank at most k, and often below min(rows, cols)
            a = rand_mat(field, rows, k, rng) * rand_mat(field, k, cols, rng)
            units = [[field.zero] * rows for _ in range(rows)]
            for j, e in enumerate(units):
                e[j] = random_element(field, rng) or field.one
            rhs = [
                dense(a.apply(_sparse([random_element(field, rng) for _ in range(cols)])), rows),
                [random_element(field, rng) for _ in range(rows)],
                [
                    random_element(field, rng) if rng.random() < 0.3 else field.zero
                    for _ in range(rows)
                ],
                [field.zero] * rows,
            ] + units
            solver = LinSolver(a)
            pivots = rref(a)[1]
            assert solver.pivots == pivots
            assert len(solver.columns) == rows
            assert all(t for col in solver.columns for _, t in col)
            for b in rhs:
                x = solver.solve(_sparse(b))
                augmented = Mat(field, [row + [y] for row, y in zip(a.tolist(), b)], rows, cols + 1)
                if augmented.rank() > len(pivots):
                    assert x is None
                    continue
                assert x is not None and dense(a.apply(x), rows) == b
                assert all(is_exact(field, v) for v in dense(x, cols))
                assert set(x) <= set(pivots)
            # b = c·e_j whose column of T reaches only rows past the rank
            for e, col in zip(units, solver.columns):
                if col and all(r >= len(pivots) for r, _ in col):
                    assert solver.solve(_sparse(e)) is None
                    past_rank_only += 1
        assert past_rank_only


def test_subspace_membership_and_sum_intersection_dims():
    rng = random.Random(3)
    for f in [FieldSpec(5)] * 30 + [FieldSpec(0)] * 30:
        n = rng.randint(1, 6)
        u = Subspace.from_vectors(
            f,
            n,
            [_sparse([random_element(f, rng) for _ in range(n)]) for _ in range(rng.randint(0, 3))],
        )
        v = Subspace.from_vectors(
            f,
            n,
            [_sparse([random_element(f, rng) for _ in range(n)]) for _ in range(rng.randint(0, 3))],
        )
        # modular law for dimensions
        meet = u.intersect(v)
        assert (u + v).dim + meet.dim == u.dim + v.dim
        assert (u + v).contains_subspace(u)
        assert u.contains_subspace(meet) and v.contains_subspace(meet)
        # canonical: the echelon basis, whichever side the meet starts from
        assert meet == v.intersect(u) == Subspace.from_vectors(f, n, meet.basis)
        for vec in u.basis:
            assert u.contains(vec) and dense(vec, n)[min(vec)] == 1
        for vec in v.basis:
            residue = u.reduce(vec)
            assert all(residue.values()) and u.contains(vec) == (not residue)
            assert (u + Subspace.from_vectors(f, n, [vec])).dim == u.dim + bool(residue)


def test_subspace_canonical_equality():
    q = FieldSpec(0)
    u = Subspace.from_vectors(q, 3, map(_sparse, [[1, 1, 0], [0, 0, 1]]))
    v = Subspace.from_vectors(q, 3, map(_sparse, [[2, 2, 2], [1, 1, 3]]))
    assert u == v and hash(u) == hash(v)
    assert u.basis == ({0: 1, 1: 1}, {2: 1}) and v.tolist() == [[1, 1, 0], [0, 0, 1]]
    assert u + v == u
    assert u.intersect(v) == u


def test_kernel_of_matrix():
    q = FieldSpec(0)
    a = Mat(q, [[1, 2, 3]])
    ker = kernel(a)
    assert ker.dim == 2 and ker.tolist() == [[1, 0, Fraction(-1, 3)], [0, 1, Fraction(-2, 3)]]
    for vec in ker.basis:
        assert a.apply(vec) == {}


def test_quotient_basis():
    # the representatives extend a basis of sub to one of the total space
    q = FieldSpec(0)
    total = Subspace.full(q, 3)
    sub = Subspace.from_vectors(q, 3, [{0: 1}])
    reps = total.quotient_basis(sub)
    assert len(reps) == 2
    assert sub + Subspace.from_vectors(q, 3, reps) == total
    f3 = FieldSpec(3)
    total = Subspace.from_vectors(f3, 4, [{0: 1}, {1: 1}, {2: 1}])
    sub = Subspace.from_vectors(f3, 4, [{0: 1, 1: 1}])
    reps = total.quotient_basis(sub)
    assert len(reps) == 2
    assert sub + Subspace.from_vectors(f3, 4, reps) == total
    # the first basis vectors of total that are independent modulo sub
    assert reps == [{0: 1}, {2: 1}]
    with pytest.raises(InputError):
        total.quotient_basis(Subspace.from_vectors(f3, 4, [{3: 1}]))
    with pytest.raises(InputError):
        Subspace.from_vectors(f3, 4, [{4: 1}])  # outside the ambient space


# -- the sparse elimination against dense Gauss-Jordan ---------------------


def dense_rref(field, data, cols):
    """Reference: textbook dense Gauss-Jordan, integral rationals as ints."""
    f = field
    rows = [list(row) for row in data]
    pivots, r = [], 0
    for c in range(cols):
        pr = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = f.inv(rows[r][c])
        rows[r] = [f.mul(inv, x) for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                q = rows[i][c]
                rows[i] = [f.sub(x, f.mul(q, y)) for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return [[x.numerator if integral_fraction(x) else x for x in row] for row in rows], pivots


def dense_solve(field, a, b):
    """Reference: the solution of a·x = b that is zero on free columns, or None."""
    red, pivots = dense_rref(field, [row + [x] for row, x in zip(a.tolist(), b)], a.cols + 1)
    if pivots and pivots[-1] == a.cols:
        return None
    x = [field.zero] * a.cols
    for r, pc in enumerate(pivots):
        x[pc] = red[r][a.cols]
    return x


def dense_kernel(field, a):
    red, pivots = dense_rref(field, a.tolist(), a.cols)
    basis = []
    for fc in (c for c in range(a.cols) if c not in pivots):
        vec = [field.zero] * a.cols
        vec[fc] = field.one
        for r, pc in enumerate(pivots):
            vec[pc] = field.neg(red[r][fc])
        basis.append(vec)
    return basis


def sparse_entry(field, rng, density):
    if rng.random() >= density:
        return field.zero
    if field.char:
        return rng.randrange(1, field.char)
    if rng.random() < 0.2:
        return field.coerce(Fraction(rng.choice([-3, -1, 1, 2, 5]), rng.choice([2, 3, 4])))
    return rng.choice([-3, -2, -1, 1, 1, 1, 2, 4])


def sparse_mat(field, rng, rows, cols, density):
    data = [[sparse_entry(field, rng, density) for _ in range(cols)] for _ in range(rows)]
    return Mat(field, data, rows, cols)


def differential_cases(field, rng):
    """Seeded matrices over `field`: every density from 0.02 to 1, the empty
    shapes, all-zero, full rank, rank-deficient and real-Fraction entries."""
    cases = [Mat(field, [], 0, 4), Mat(field, [[]] * 3, 3, 0), Mat.zeros(field, 4, 5)]
    for density in (0.02, 0.05, 0.1, 0.2, 0.35, 0.5, 0.75, 1.0):
        for _ in range(6):
            cases.append(sparse_mat(field, rng, rng.randint(1, 12), rng.randint(1, 12), density))
    for n in (1, 4, 9):
        # full rank: unit upper triangular, rows permuted
        upper = sparse_mat(field, rng, n, n, 0.5).tolist()
        data = [
            [field.one if i == j else x if j > i else field.zero for j, x in enumerate(row)]
            for i, row in enumerate(upper)
        ]
        rng.shuffle(data)
        cases.append(Mat(field, data, n, n))
    for k in (0, 1, 3):
        # rank at most k < 7
        cases.append(sparse_mat(field, rng, 7, k, 0.6) * sparse_mat(field, rng, k, 8, 0.6))
    if not field.char:
        halves = [[Fraction(1, 2), Fraction(3, 4), 1], [Fraction(1, 3), 2, Fraction(-5, 2)]]
        cases.append(Mat(field, halves))
    return cases


def integral_fraction(x):
    return type(x) is Fraction and x.denominator == 1


@pytest.mark.parametrize("p", [0, 2, 101, 65521])
def test_sparse_elimination_matches_dense_gauss_jordan(p):
    field = FieldSpec(p)
    rng = random.Random(1400 + p)
    seen = []
    for a in differential_cases(field, rng):
        ref_rows, ref_pivots = dense_rref(field, a.tolist(), a.cols)
        red, pivots = rref(a)
        assert pivots == ref_pivots and red.tolist() == ref_rows, a
        assert red.shape == a.shape and a.rank() == len(ref_pivots)
        ker = [dense(v, a.cols) for v in a.kernel_basis()]
        assert ker == dense_kernel(field, a)
        solver = LinSolver(a)
        assert solver.pivots == ref_pivots
        rhs = [
            dense(a.apply(_sparse([sparse_entry(field, rng, 0.7) for _ in range(a.cols)])), a.rows),
            [sparse_entry(field, rng, 0.7) for _ in range(a.rows)],
            [field.one] + [field.zero] * (a.rows - 1) if a.rows else [],
        ]
        solves = [solver.solve(_sparse(b)) for b in rhs]
        solves = [None if x is None else dense(x, a.cols) for x in solves]
        assert solves == [dense_solve(field, a, b) for b in rhs]
        assert solves[0] is not None
        outputs = [x for row in red.tolist() for x in row] + [x for v in ker for x in v]
        outputs += [x for v in solves if v is not None for x in v]
        assert all(is_exact(field, x) and not integral_fraction(x) for x in outputs)
        seen += [type(v) for v in solves] + [type(x) for x in outputs]
    # the cases reach inconsistent systems, and over Q real Fractions
    assert type(None) in seen and (Fraction in seen) == (p == 0)



def unit_row_cases(field, rng):
    """Seeded (matrix, has a unit row for every column) pairs: the unit rows
    e_j, some of them twice, shuffled among random sparse rows; and the same
    rows with every copy of one e_j taken out."""
    cases = []
    for _ in range(40):
        cols = rng.randint(0, 7)
        units = [[field.one if c == j else field.zero for c in range(cols)] for j in range(cols)]
        data = units + [e for e in units if rng.random() < 0.3]
        data += sparse_mat(field, rng, rng.randint(0, 6), cols, rng.choice([0.2, 0.5, 0.9])).tolist()
        rng.shuffle(data)
        cases.append((Mat(field, data, len(data), cols), True))
        if cols:
            gone = units[rng.randrange(cols)]
            lacking = [row for row in data if row != gone]
            cases.append((Mat(field, lacking, len(lacking), cols), False))
    return cases


@pytest.mark.parametrize("p", [0, 2, 101])
def test_unit_row_solver_matches_the_elimination_path(p, monkeypatch):
    # with a unit row for every column the transform is written off the
    # rows, with no elimination; a zero column appended takes the
    # elimination path, whose solution is the same with a 0 at the end
    from deqcert import exactla

    field = FieldSpec(p)
    rng = random.Random(1900 + p)
    calls, rref_rows = [], exactla._rref_rows
    monkeypatch.setattr(exactla, "_rref_rows", lambda *args: calls.append(1) or rref_rows(*args))
    doubled = outside = 0
    for a, has_units in unit_row_cases(field, rng):
        calls.clear()
        solver = LinSolver(a)
        assert len(calls) == (0 if has_units else 1)
        padded = LinSolver(Mat(field, [row + [0] for row in a.tolist()], a.rows, a.cols + 1))
        rhs = [
            dense(a.apply(_sparse([sparse_entry(field, rng, 0.7) for _ in range(a.cols)])), a.rows),
            [sparse_entry(field, rng, 0.5) for _ in range(a.rows)],
            [field.zero] * a.rows,
        ] + [[field.one if k == i else field.zero for k in range(a.rows)] for i in range(a.rows)]
        for b in rhs:
            x, ref = solver.solve(_sparse(b)), padded.solve(_sparse(b))
            assert x == ref and (ref is None or a.cols not in ref)
            x = None if x is None else dense(x, a.cols)
            assert x == dense_solve(field, a, b)
            assert x is None or all(is_exact(field, v) and not integral_fraction(v) for v in x)
            outside += x is None
        assert solver.pivots == rref(a)[1]
        units = [tuple(row) for row in a.tolist() if sorted(row) == [0] * (a.cols - 1) + [1]]
        doubled += has_units and len(units) > len(set(units))
    # some right-hand sides lie outside the span, and some columns hold two unit rows
    assert outside and doubled


# -- the sparse-row matrix against plain list arithmetic --------------------


def assert_matches(m, shape, ref):
    """m has the shape and the entries of ref and stores them under the
    value rules: it equals the matrix built from ref's dense rows, which
    stores no zero and no GF(p) value outside [0, p), and over Q no entry is
    an integral Fraction."""
    assert m.shape == shape and m.tolist() == ref, (m, ref)
    assert m == Mat(m.field, ref, *shape), m
    assert not any(integral_fraction(x) for row in m.tolist() for x in row), m


@pytest.mark.parametrize("p", [0, 2, 101])
def test_sparse_mat_matches_a_dense_reference(p):
    f = FieldSpec(p)
    rng = random.Random(1800 + p)

    def dot(xs, ys):
        out = f.zero
        for x, y in zip(xs, ys):
            out = f.add(out, f.mul(x, y))
        return out

    cancelled = 0
    for density in (0, 0.1, 0.25, 0.5, 0.75, 1):
        shapes = [(0, 3, 2), (3, 0, 2), (2, 3, 0)] + [
            tuple(rng.randint(1, 5) for _ in range(3)) for _ in range(6)
        ]
        for r, k, c in shapes:
            a, b = sparse_mat(f, rng, r, k, density), sparse_mat(f, rng, k, c, density)
            da, db = a.tolist(), b.tolist()
            cols_a = [[row[j] for row in da] for j in range(k)]
            ab = [[dot(row, [brow[j] for brow in db]) for j in range(c)] for row in da]
            assert_matches(a * b, (r, c), ab)
            # the same product with every term cancelled: [a | a]·[b; -b]
            twice = Mat(f, [row + row for row in da], r, 2 * k)
            negated = Mat(f, db + [[f.neg(y) for y in row] for row in db], 2 * k, c)
            assert_matches(twice * negated, (r, c), [[f.zero] * c for _ in range(r)])
            cancelled += any(map(any, ab))
            # a sum that cancels about half of a's entries
            do = [
                [f.neg(x) if rng.random() < 0.5 else random_element(f, rng) for x in row]
                for row in da
            ]
            other = Mat(f, do, r, k)
            assert_matches(a + other, (r, k), [list(map(f.add, x, y)) for x, y in zip(da, do)])
            assert_matches(a - other, (r, k), [list(map(f.sub, x, y)) for x, y in zip(da, do)])
            assert_matches(a - a, (r, k), [[f.zero] * k for _ in range(r)])
            assert_matches(-a, (r, k), [list(map(f.neg, row)) for row in da])
            for s in (0, 1, -1, 2, "1/2" if not p else 3):
                scaled = [[f.mul(f.coerce(s), x) for x in row] for row in da]
                assert_matches(a.scale(s), (r, k), scaled)
            vec = [sparse_entry(f, rng, density) for _ in range(k)]
            image = a.apply(_sparse(vec))
            assert dense(image, r) == [dot(row, vec) for row in da]
            assert not any(map(integral_fraction, image.values()))
            assert_matches(a.transpose(), (k, r), cols_a)
            assert_matches(Mat.from_columns(f, list(map(_sparse, cols_a)), r), (r, k), da)
            red, pivots = rref(a)
            ref_rows, ref_pivots = dense_rref(f, da, k)
            assert_matches(red, (r, k), ref_rows)
            assert pivots == ref_pivots
    assert cancelled  # some product was nonzero before it cancelled
    for n in (0, 1, 4):
        unit = [[f.one if i == j else f.zero for j in range(n)] for i in range(n)]
        assert_matches(Mat.identity(f, n), (n, n), unit)
