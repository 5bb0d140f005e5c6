"""Exact linear algebra over the rationals and prime fields.

Every Hom space, ideal and homology computation in this package reduces to
kernels, solves and subspace arithmetic implemented here.  All arithmetic is
exact: a rational is a plain int when its value is an integer and a
`fractions.Fraction` in lowest terms otherwise, and prime-field elements are
ints in [0, p).  Subspaces are kept in reduced row echelon form,
which is the canonical representative used for every equality test.

Every rank, kernel, solve, span and intersection runs one elimination,
`_rref_rows`: a row-at-a-time RREF of sparse {column: nonzero} rows after
SymPy's `sdm_irref`, whose cost follows the nonzeros, not rows x columns.
The RREF is unique, so it gives the entries a dense Gauss-Jordan would.
A `Mat` stores its rows in that form, so an elimination starts from a copy
of them.  Every vector is such a dict too, under the same value rules: a
solve's right-hand side and solution, a kernel vector, the argument and
result of `Mat.apply`, the columns `Mat.from_columns` takes and the rows of
a `Subspace` basis.  `Mat.tolist` and `Subspace.tolist` are the dense views.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from itertools import compress, count

from .errors import InputError

__all__ = [
    "FieldSpec",
    "QQ",
    "Mat",
    "Subspace",
    "LinSolver",
    "kernel",
    "sparse_kernel",
]


def _parse_rational(text: str) -> Fraction:
    """An integer or 'a/b' with integer a and nonzero integer b."""
    num, slash, den = text.partition("/")
    try:
        return Fraction(int(num), int(den) if slash else 1)
    except (ValueError, ZeroDivisionError):
        raise InputError(f"bad scalar {text!r} (use an integer or a/b)") from None


class FieldSpec:
    """The base field: Q (characteristic 0) or F_p for a prime p."""

    def __init__(self, characteristic: int = 0):
        if characteristic:
            if characteristic < 2 or any(
                characteristic % d == 0 for d in range(2, int(characteristic**0.5) + 1)
            ):
                raise InputError(f"characteristic {characteristic} is not prime")
        self.char = characteristic

    # -- element arithmetic ------------------------------------------------

    zero = 0
    one = 1

    def coerce(self, x):
        """Accept ints, Fractions and integer or 'a/b' strings, which read the
        same over Q and F_p; InputError otherwise (bools included)."""
        p = self.char
        if isinstance(x, int) and x is not True and x is not False:
            return x % p if p else x
        if isinstance(x, str):
            x = _parse_rational(x)
        if isinstance(x, Fraction):
            if not p:
                return x.numerator if x.denominator == 1 else x
            if x.denominator % p == 0:
                raise InputError(f"{x} has no value in F_{p}")
            return self.div(x.numerator % p, x.denominator % p)
        raise InputError(f"cannot coerce {x!r} into {'F_' + str(p) if p else 'Q'}")

    def add(self, a, b):
        return a + b if self.char == 0 else (a + b) % self.char

    def sub(self, a, b):
        return a - b if self.char == 0 else (a - b) % self.char

    def mul(self, a, b):
        return a * b if self.char == 0 else (a * b) % self.char

    def neg(self, a):
        return -a if self.char == 0 else (-a) % self.char

    def inv(self, a):
        if not a:
            raise ZeroDivisionError("field inverse of zero")
        if self.char:
            return pow(a, self.char - 2, self.char)
        return _integral(1 / Fraction(a))

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def fmt(self, a) -> str:
        return str(a)

    def __eq__(self, other):
        return isinstance(other, FieldSpec) and self.char == other.char

    def __hash__(self):
        return hash(("FieldSpec", self.char))

    def __repr__(self):
        return "QQ" if self.char == 0 else f"GF({self.char})"


QQ = FieldSpec(0)


class Mat:
    """Matrix over a FieldSpec, acting on column vectors, stored as one
    {column: nonzero} dict per row: no zero is stored, a GF(p) value lies in
    [0, p) and an integral rational is an int, so equal matrices have equal
    rows and every operation costs the nonzeros it reads."""

    __slots__ = ("field", "rows", "cols", "sparse_rows")

    def __init__(self, field: FieldSpec, data, rows=None, cols=None):
        """data: dense rows of anything field.coerce accepts."""
        if rows is None:
            rows, cols = len(data), len(data[0]) if data else 0
        if any(len(row) != cols for row in data):
            raise InputError("ragged matrix rows")
        self.field, self.rows, self.cols = field, rows, cols
        self.sparse_rows = [_sparse(list(map(field.coerce, row))) for row in data]

    # -- constructors ------------------------------------------------------

    @classmethod
    def _of(cls, field, sparse_rows, rows, cols):
        """Wrap {column: nonzero} rows that already obey the value rules: no
        coerce, no copy."""
        m = cls.__new__(cls)
        m.field, m.sparse_rows, m.rows, m.cols = field, sparse_rows, rows, cols
        return m

    @classmethod
    def zeros(cls, field, rows, cols):
        return cls._of(field, [{} for _ in range(rows)], rows, cols)

    @classmethod
    def identity(cls, field, n):
        return cls._of(field, [{i: field.one} for i in range(n)], n, n)

    @classmethod
    def from_columns(cls, field, cols, rows):
        """The rows x len(cols) matrix whose j-th column is cols[j], a
        {row: nonzero} dict of field elements (no coerce)."""
        data = [{} for _ in range(rows)]
        for j, col in enumerate(cols):
            for i, x in col.items():
                data[i][j] = x
        return cls._of(field, data, rows, len(cols))

    def tolist(self):
        """The dense rows, zeros written out."""
        out = []
        for row in self.sparse_rows:
            dense = [0] * self.cols
            for c, x in row.items():
                dense[c] = x
            out.append(dense)
        return out

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        self._check_shape(other)
        out = []
        for a, b in zip(self.sparse_rows, other.sparse_rows):
            row = dict(a)
            for c, x in b.items():
                row[c] = row[c] + x if c in row else x
            out.append(_normal(self.field.char, row))
        return Mat._of(self.field, out, self.rows, self.cols)

    def __sub__(self, other):
        return self + -other

    def __neg__(self):
        p = self.field.char
        data = [{c: p - x if p else -x for c, x in row.items()} for row in self.sparse_rows]
        return Mat._of(self.field, data, self.rows, self.cols)

    def scale(self, c):
        c = self.field.coerce(c)
        if not c:
            return Mat.zeros(self.field, self.rows, self.cols)
        p = self.field.char
        data = [_normal(p, {k: c * x for k, x in row.items()}) for row in self.sparse_rows]
        return Mat._of(self.field, data, self.rows, self.cols)

    def __mul__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        if self.cols != other.rows:
            raise InputError(
                f"matrix product shape mismatch: {self.shape} x {other.shape}"
            )
        p, b = self.field.char, other.sparse_rows
        out = []
        for row in self.sparse_rows:
            acc = {}  # no int 0 start: 0 + Fraction is slow
            for k, a in row.items():
                for j, x in b[k].items():
                    acc[j] = acc[j] + a * x if j in acc else a * x
            out.append(_normal(p, acc) if acc else acc)
        return Mat._of(self.field, out, self.rows, other.cols)

    def apply(self, vec):
        """Matrix times a {column: nonzero} vector, as a {row: nonzero} dict."""
        out = {}
        for i, row in enumerate(self.sparse_rows):
            if terms := [a * vec[c] for c, a in row.items() if c in vec]:
                out[i] = sum(terms)
        return _normal(self.field.char, out)

    def transpose(self):
        data = [{} for _ in range(self.cols)]
        for i, row in enumerate(self.sparse_rows):
            for c, x in row.items():
                data[c][i] = x
        return Mat._of(self.field, data, self.cols, self.rows)

    @property
    def shape(self):
        return (self.rows, self.cols)

    def is_zero(self) -> bool:
        return not any(self.sparse_rows)

    def __eq__(self, other):
        return (
            isinstance(other, Mat)
            and self.shape == other.shape
            and self.field == other.field
            and self.sparse_rows == other.sparse_rows
        )

    def _check_shape(self, other):
        if self.shape != other.shape:
            raise InputError(f"shape mismatch: {self.shape} vs {other.shape}")

    def __repr__(self):
        body = "; ".join(" ".join(self.field.fmt(x) for x in row) for row in self.tolist())
        return f"Mat({self.rows}x{self.cols}: {body})"

    # -- elimination -------------------------------------------------------

    def rank(self) -> int:
        return len(_rref_rows(self.field, list(map(dict, self.sparse_rows)))[0])

    def kernel_basis(self):
        """Basis of the right null space, one {column: nonzero} vector per
        free column."""
        return sparse_kernel(self.field, list(map(dict, self.sparse_rows)), self.cols)


def _sparse(vec):
    """A dense vector as its {column: nonzero} dict, built at C speed."""
    return dict(zip(compress(count(), vec), compress(vec, vec)))


def _integral(x):
    """An integral Fraction as its int; anything else unchanged."""
    return x.numerator if type(x) is Fraction and x.denominator == 1 else x


def _normal(p, row):
    """A {column: value} row under the value rules: zeros dropped, values
    reduced into [0, p) over GF(p), and integral Fractions as ints over Q (a
    type scan at C speed skips the rows that hold no Fraction)."""
    if p:
        return {c: y for c, x in row.items() if (y := x % p)}
    if Fraction in map(type, row.values()):
        return {c: _integral(x) for c, x in row.items() if x}
    return row if all(row.values()) else {c: x for c, x in row.items() if x}


def _sub_multiple(p, dst, q, src):
    """dst -= q·src in place, dropping the entries that cancel."""
    for c, x in src.items():
        y = dst.get(c, 0) - q * x
        if p:
            y %= p
        if y:
            dst[c] = y
        else:
            del dst[c]


def _rref_rows(field, rows):
    """RREF of {column: nonzero} rows, consumed in order: each row is reduced
    by the pivot rows whose pivot it holds, scaled to 1 at its first column,
    and that column is cleared from the earlier rows that hold it.  Returns
    the ascending pivots, the reduced row of each, and the indices of the
    rows that raised a pivot (those independent of the rows before them)."""
    p = field.char
    pivot_rows = {}  # pivot column -> its reduced row
    holders = defaultdict(set)  # column -> pivots whose row may be nonzero there
    raised = []
    for i, row in enumerate(rows):
        for j in row.keys() & pivot_rows.keys():
            _sub_multiple(p, row, row[j], pivot_rows[j])
        if not row:
            continue
        j = min(row)
        if row[j] != 1:
            inv = field.inv(row[j])
            for c in row:
                row[c] = row[c] * inv % p if p else row[c] * inv
        for k in holders.pop(j, ()):
            krow = pivot_rows[k]
            if j in krow:
                _sub_multiple(p, krow, krow[j], row)
                for c in row:
                    holders[c].add(k)
        for c in row:
            holders[c].add(j)
        pivot_rows[j] = row
        raised.append(i)
    pivots = sorted(pivot_rows)
    # over Q, integral rationals become ints once, at the end
    reduced = [pivot_rows[c] if p else _normal(p, pivot_rows[c]) for c in pivots]
    return pivots, reduced, raised


def sparse_kernel(field, rows, cols):
    """Basis of {v in F^cols : row·v = 0 for every row} as {column: nonzero}
    dicts, one per free column in ascending order, each 1 there and 0 at the
    other free columns; `rows` are {column: nonzero} dicts (consumed)."""
    p = field.char
    pivots, reduced, _ = _rref_rows(field, rows)
    basis = {fc: {fc: 1} for fc in sorted(set(range(cols)) - set(pivots))}
    for pc, row in zip(pivots, reduced):
        for c, x in row.items():
            if c != pc:
                basis[c][pc] = -x % p if p else -x
    return list(basis.values())


class LinSolver:
    """Repeated exact solves of A·x = b with A fixed, through a transform T
    kept by column as nonzero (row, value) pairs, so a solve reads only the
    columns where b is nonzero.  Row r < rank of T·b is the r-th pivot
    coordinate of x, and the rows past the rank must vanish.

    When A has a unit row e_j for every column j, as it does when its
    columns are a kernel or echelon basis, T is written off A's rows: x_j is
    b at the first such row, and each other row i checks b_i = A_i·x.
    Otherwise T comes from the sparse RREF of [A | I] = T·[A | I], row i of
    A entering as its nonzeros plus the entry n + i.  Either way the build
    costs the nonzeros it meets.
    """

    def __init__(self, a: Mat):
        self.field = a.field
        n = self.cols = a.cols
        self.columns = [[] for _ in range(a.rows)]
        unit = {}  # column j -> the first row of A that is e_j
        for i, row in enumerate(a.sparse_rows):
            if len(row) == 1 and 1 in row.values():
                unit.setdefault(min(row), i)
        if len(unit) == n:
            p, chosen = a.field.char, set(unit.values())
            self.pivots = list(range(n))
            for j, i in unit.items():
                self.columns[i].append((j, 1))
            checks = (i for i in range(a.rows) if i not in chosen)
            for r, i in enumerate(checks, n):
                self.columns[i].append((r, 1))
                for j, x in a.sparse_rows[i].items():
                    self.columns[unit[j]].append((r, p - x if p else -x))
            return
        rows = [{**row, n + i: 1} for i, row in enumerate(a.sparse_rows)]
        pivots, reduced, _ = _rref_rows(a.field, rows)
        self.pivots = [c for c in pivots if c < n]
        for r, row in enumerate(reduced):
            for c, t in row.items():
                if c >= n:
                    self.columns[c - n].append((r, t))

    def solve(self, b):
        """The solution of A·x = b that is zero on every free column, as a
        {column: nonzero} dict, or None; b is a {row: nonzero} dict."""
        acc = {}  # row r -> (T·b)_r; no int 0 start: 0 + Fraction is slow
        for j, bj in b.items():
            for r, t in self.columns[j]:
                acc[r] = acc[r] + t * bj if r in acc else t * bj
        p, pivots = self.field.char, self.pivots
        x = {}
        for r, s in acc.items():
            if p:
                s %= p
            elif type(s) is Fraction and s.denominator == 1:
                s = s.numerator
            if not s:
                continue
            if r >= len(pivots):
                return None
            x[pivots[r]] = s
        return x


def kernel(m: Mat) -> "Subspace":
    """Right null space {v : m·v = 0} as a canonical Subspace."""
    return Subspace.from_vectors(m.field, m.cols, m.kernel_basis())


class Subspace:
    """A subspace of F^n, stored by its reduced-echelon basis (canonical):
    {column: nonzero} rows, each 1 at its pivot, the first column it holds."""

    __slots__ = ("field", "ambient", "basis")

    def __init__(self, field: FieldSpec, ambient: int, echelon_basis):
        self.field = field
        self.ambient = ambient
        self.basis = tuple(echelon_basis)

    @classmethod
    def from_vectors(cls, field, ambient, vectors) -> "Subspace":
        """The span of {column: nonzero} vectors (not consumed)."""
        rows = list(map(dict, vectors))
        if any(row and max(row) >= ambient for row in rows):
            raise InputError("vector does not match ambient dimension")
        return cls(field, ambient, _rref_rows(field, rows)[1])

    @classmethod
    def zero(cls, field, ambient) -> "Subspace":
        return cls(field, ambient, [])

    @classmethod
    def full(cls, field, ambient) -> "Subspace":
        return cls(field, ambient, [{i: field.one} for i in range(ambient)])

    @property
    def dim(self) -> int:
        return len(self.basis)

    def tolist(self):
        """The basis as dense rows, zeros written out."""
        return Mat._of(self.field, list(self.basis), self.dim, self.ambient).tolist()

    def reduce(self, vec):
        """Residue of the {column: nonzero} vec after subtracting its
        projection onto the basis, as a {column: nonzero} dict."""
        p, v = self.field.char, dict(vec)
        for row in self.basis:
            c = v.get(min(row))
            if c:
                _sub_multiple(p, v, c, row)
        return _normal(p, v)

    def contains(self, vec) -> bool:
        return not self.reduce(vec)

    def contains_subspace(self, other: "Subspace") -> bool:
        return all(self.contains(v) for v in other.basis)

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.ambient == other.ambient
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash((self.ambient, tuple(frozenset(v.items()) for v in self.basis)))

    def __add__(self, other) -> "Subspace":
        self._check(other)
        return Subspace.from_vectors(self.field, self.ambient, self.basis + other.basis)

    def intersect(self, other: "Subspace") -> "Subspace":
        """Zassenhaus: the rows (u | u) for u in self and (v | 0) for v in
        other reduce to rows (0 | w) whose w are the echelon basis of the
        intersection."""
        self._check(other)
        n = self.ambient
        rows = [{**u, **{n + c: x for c, x in u.items()}} for u in self.basis]
        pivots, reduced, _ = _rref_rows(self.field, rows + list(map(dict, other.basis)))
        basis = [{c - n: x for c, x in row.items()} for pc, row in zip(pivots, reduced) if pc >= n]
        return Subspace(self.field, n, basis)

    def quotient_basis(self, sub: "Subspace"):
        """Vectors of self extending a basis of sub (coset representatives):
        the first of self's basis vectors that are independent modulo sub."""
        self._check(sub)
        k = sub.dim
        _, _, raised = _rref_rows(self.field, list(map(dict, sub.basis + self.basis)))
        if len(raised) != self.dim:
            raise InputError("quotient-basis requires sub to be contained in self")
        return [self.basis[i - k] for i in raised if i >= k]

    def _check(self, other):
        if self.ambient != other.ambient:
            raise InputError("ambient dimension mismatch")

    def __repr__(self):
        return f"Subspace(dim {self.dim} of F^{self.ambient})"
