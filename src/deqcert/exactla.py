"""Exact linear algebra over the rationals and prime fields.

Every Hom space, ideal and homology computation in this package reduces to
kernels, solves and subspace arithmetic implemented here.  All arithmetic is
exact: a rational is a plain int when its value is an integer and a
`fractions.Fraction` in lowest terms otherwise, and prime-field elements are
ints in [0, p).  Subspaces are kept in reduced row echelon form,
which is the canonical representative used for every equality test.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InputError

__all__ = [
    "FieldSpec",
    "QQ",
    "Mat",
    "Subspace",
    "LinSolver",
    "kernel",
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

    @classmethod
    def rationals(cls) -> "FieldSpec":
        return cls(0)

    @classmethod
    def prime(cls, p: int) -> "FieldSpec":
        return cls(p)

    @property
    def kind(self) -> str:
        return "rationals" if self.char == 0 else "prime-field"

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
        r = 1 / Fraction(a)
        return r.numerator if r.denominator == 1 else r

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def elements(self):
        """All field elements; prime fields only (used by enumeration oracles)."""
        if self.char == 0:
            raise InputError("cannot enumerate Q")
        return range(self.char)

    def random(self, rng):
        if self.char:
            return rng.randrange(self.char)
        return rng.randint(-4, 4)

    def fmt(self, a) -> str:
        return str(a)

    def __eq__(self, other):
        return isinstance(other, FieldSpec) and self.char == other.char

    def __hash__(self):
        return hash(("FieldSpec", self.char))

    def __repr__(self):
        return "QQ" if self.char == 0 else f"GF({self.char})"


QQ = FieldSpec.rationals()


class Mat:
    """Dense matrix over a FieldSpec, acting on column vectors."""

    __slots__ = ("field", "rows", "cols", "data")

    def __init__(self, field: FieldSpec, data, rows=None, cols=None):
        self.field = field
        if rows is None:
            rows = len(data)
            cols = len(data[0]) if data else 0
        self.rows = rows
        self.cols = cols
        self.data = [[field.coerce(x) for x in row] for row in data]
        for row in self.data:
            if len(row) != cols:
                raise InputError("ragged matrix rows")

    # -- constructors ------------------------------------------------------

    @classmethod
    def _of(cls, field, data, rows, cols):
        """Wrap rows whose entries are already field elements: no coerce, no copy."""
        m = cls.__new__(cls)
        m.field, m.data, m.rows, m.cols = field, data, rows, cols
        return m

    @classmethod
    def zeros(cls, field, rows, cols):
        z = field.zero
        return cls._of(field, [[z] * cols for _ in range(rows)], rows, cols)

    @classmethod
    def identity(cls, field, n):
        m = cls.zeros(field, n, n)
        for i in range(n):
            m.data[i][i] = field.one
        return m

    @classmethod
    def from_rows(cls, field, rows, cols=None):
        if rows:
            return cls(field, rows)
        return cls.zeros(field, 0, 0 if cols is None else cols)

    @classmethod
    def from_columns(cls, field, cols, rows):
        """The rows x len(cols) matrix whose j-th column is cols[j], a
        sequence of field elements (no coerce)."""
        return cls._of(field, [[col[i] for col in cols] for i in range(rows)], rows, len(cols))

    @classmethod
    def column(cls, field, vec):
        return cls(field, [[x] for x in vec], len(vec), 1)

    def copy(self):
        return Mat._of(self.field, [row[:] for row in self.data], self.rows, self.cols)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        self._check_shape(other)
        f = self.field
        return Mat._of(
            f,
            [
                [f.add(a, b) for a, b in zip(ra, rb)]
                for ra, rb in zip(self.data, other.data)
            ],
            self.rows,
            self.cols,
        )

    def __sub__(self, other):
        self._check_shape(other)
        f = self.field
        return Mat._of(
            f,
            [
                [f.sub(a, b) for a, b in zip(ra, rb)]
                for ra, rb in zip(self.data, other.data)
            ],
            self.rows,
            self.cols,
        )

    def __neg__(self):
        f = self.field
        return Mat._of(f, [[f.neg(a) for a in row] for row in self.data], self.rows, self.cols)

    def scale(self, c):
        f = self.field
        c = f.coerce(c)
        return Mat._of(f, [[f.mul(c, a) for a in row] for row in self.data], self.rows, self.cols)

    def __mul__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        if self.cols != other.rows:
            raise InputError(
                f"matrix product shape mismatch: {self.shape} x {other.shape}"
            )
        f = self.field
        out = Mat.zeros(f, self.rows, other.cols)
        for i in range(self.rows):
            srow = self.data[i]
            orow = out.data[i]
            for k in range(self.cols):
                a = srow[k]
                if not a:
                    continue
                brow = other.data[k]
                for j in range(other.cols):
                    b = brow[j]
                    if b:
                        orow[j] = f.add(orow[j], f.mul(a, b))
        return out

    def apply(self, vec):
        """Matrix times column vector."""
        if len(vec) != self.cols:
            raise InputError("vector length mismatch")
        f = self.field
        out = []
        for row in self.data:
            s = f.zero
            for a, x in zip(row, vec):
                if a and x:
                    s = f.add(s, f.mul(a, x))
            out.append(s)
        return out

    def transpose(self):
        return Mat._of(
            self.field,
            [[self.data[i][j] for i in range(self.rows)] for j in range(self.cols)],
            self.cols,
            self.rows,
        )

    @property
    def shape(self):
        return (self.rows, self.cols)

    def is_zero(self) -> bool:
        return all(not x for row in self.data for x in row)

    def __eq__(self, other):
        return (
            isinstance(other, Mat)
            and self.shape == other.shape
            and self.field == other.field
            and self.data == other.data
        )

    def __hash__(self):
        return hash((self.field, self.rows, self.cols, tuple(map(tuple, self.data))))

    def _check_shape(self, other):
        if self.shape != other.shape:
            raise InputError(f"shape mismatch: {self.shape} vs {other.shape}")

    def __repr__(self):
        body = "; ".join(" ".join(self.field.fmt(x) for x in row) for row in self.data)
        return f"Mat({self.rows}x{self.cols}: {body})"

    # -- elimination -------------------------------------------------------

    def rref(self):
        """Reduced row echelon form; returns (rref_matrix, pivot_columns)."""
        f = self.field
        rows = [row[:] for row in self.data]
        pivots = []
        r = 0
        for c in range(self.cols):
            if r >= self.rows:
                break
            pr = next((i for i in range(r, self.rows) if rows[i][c]), None)
            if pr is None:
                continue
            rows[r], rows[pr] = rows[pr], rows[r]
            inv = f.inv(rows[r][c])
            rows[r] = [f.mul(inv, x) for x in rows[r]]
            for i in range(self.rows):
                if i != r and rows[i][c]:
                    q = rows[i][c]
                    rows[i] = [f.sub(x, f.mul(q, y)) for x, y in zip(rows[i], rows[r])]
            pivots.append(c)
            r += 1
        if not f.char:
            # integral rationals as ints: rows past the rank are zero, and a
            # type scan at C speed skips the rows that hold no Fraction
            rows[r:] = [[0] * self.cols for _ in range(self.rows - r)]
            rows[:r] = [
                [x.numerator if type(x) is Fraction and x.denominator == 1 else x for x in row]
                if Fraction in map(type, row)
                else row
                for row in rows[:r]
            ]
        return Mat._of(f, rows, self.rows, self.cols), pivots

    def rank(self) -> int:
        return len(self.rref()[1])

    def kernel_basis(self):
        """Basis of the right null space, one vector per free column."""
        f = self.field
        red, pivots = self.rref()
        pivot_set = set(pivots)
        free = [c for c in range(self.cols) if c not in pivot_set]
        basis = []
        for fc in free:
            vec = [f.zero] * self.cols
            vec[fc] = f.one
            for r, pc in enumerate(pivots):
                vec[pc] = f.neg(red.data[r][fc])
            basis.append(vec)
        return basis


class LinSolver:
    """Repeated exact solves of A·x = b with A fixed.

    Precomputes the RREF of [A | I] = T·[A | I] and keeps each column of T
    as its nonzero (row, value) pairs, so a solve reads only the columns
    where b is nonzero.  Row r < rank of T·b is the r-th pivot coordinate
    of x, and the rows past the rank must vanish for a solution to exist.
    """

    def __init__(self, a: Mat):
        f = self.field = a.field
        self.cols = a.cols
        ident = Mat.identity(f, a.rows).data
        aug = Mat._of(f, [row + e for row, e in zip(a.data, ident)], a.rows, a.cols + a.rows)
        red, pivots = aug.rref()
        self.pivots = [p for p in pivots if p < a.cols]
        transform = [row[a.cols :] for row in red.data]
        self.columns = [[(r, t) for r, t in enumerate(col) if t] for col in zip(*transform)]

    def solve(self, b):
        """The solution of A·x = b that is zero on every free column, or None."""
        acc = {}  # row r -> (T·b)_r; no int 0 start: 0 + Fraction is slow
        for bj, col in zip(b, self.columns):
            if bj:
                for r, t in col:
                    acc[r] = acc[r] + t * bj if r in acc else t * bj
        p, pivots = self.field.char, self.pivots
        x = [self.field.zero] * self.cols
        for r, s in acc.items():
            if p:
                s %= p
            elif type(s) is Fraction and s.denominator == 1:
                s = s.numerator
            if r < len(pivots):
                x[pivots[r]] = s
            elif s:
                return None
        return x


def _echelon(rows):
    """(pivot column, row) for echelon rows, each zero at earlier pivots."""
    return [(next(i for i, x in enumerate(row) if x), row) for row in rows]


def _eliminate(f, echelon, v):
    """Residue of v after clearing each echelon pivot in turn."""
    for pc, row in echelon:
        if v[pc]:
            c = v[pc]
            v = [f.sub(a, f.mul(c, b)) for a, b in zip(v, row)]
    return v


def kernel(m: Mat) -> "Subspace":
    """Right null space {v : m·v = 0} as a canonical Subspace."""
    return Subspace.from_vectors(m.field, m.cols, m.kernel_basis())


class Subspace:
    """A subspace of F^n, stored by its reduced-echelon basis (canonical)."""

    __slots__ = ("field", "ambient", "basis")

    def __init__(self, field: FieldSpec, ambient: int, echelon_basis):
        self.field = field
        self.ambient = ambient
        self.basis = tuple(tuple(v) for v in echelon_basis)

    @classmethod
    def from_vectors(cls, field, ambient, vectors) -> "Subspace":
        vectors = [list(v) for v in vectors]
        for v in vectors:
            if len(v) != ambient:
                raise InputError("vector does not match ambient dimension")
        if not vectors:
            return cls(field, ambient, [])
        red, pivots = Mat(field, vectors, len(vectors), ambient).rref()
        return cls(field, ambient, red.data[: len(pivots)])

    @classmethod
    def zero(cls, field, ambient) -> "Subspace":
        return cls(field, ambient, [])

    @classmethod
    def full(cls, field, ambient) -> "Subspace":
        return cls(field, ambient, Mat.identity(field, ambient).data)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def matrix(self) -> Mat:
        return Mat.from_rows(self.field, [list(v) for v in self.basis], self.ambient)

    def reduce(self, vec):
        """Residue of vec after subtracting its projection onto the basis."""
        return _eliminate(self.field, _echelon(self.basis), [self.field.coerce(x) for x in vec])

    def contains(self, vec) -> bool:
        return not any(self.reduce(vec))

    def contains_subspace(self, other: "Subspace") -> bool:
        return all(self.contains(v) for v in other.basis)

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.ambient == other.ambient
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash((self.ambient, self.basis))

    def __add__(self, other) -> "Subspace":
        self._check(other)
        return Subspace.from_vectors(
            self.field, self.ambient, list(self.basis) + list(other.basis)
        )

    def intersect(self, other: "Subspace") -> "Subspace":
        """Kernel-of-stacked-matrix construction."""
        self._check(other)
        if not self.basis or not other.basis:
            return Subspace.zero(self.field, self.ambient)
        f = self.field
        # columns: coefficients (x, y) with x·A = y·B
        stacked = Mat.from_columns(
            f, list(self.basis) + [[f.neg(x) for x in v] for v in other.basis], self.ambient
        )
        vecs = []
        for coeff in stacked.kernel_basis():
            v = [f.zero] * self.ambient
            for i in range(self.dim):
                if coeff[i]:
                    v = [f.add(a, f.mul(coeff[i], b)) for a, b in zip(v, self.basis[i])]
            vecs.append(v)
        return Subspace.from_vectors(f, self.ambient, vecs)

    def quotient_basis(self, sub: "Subspace"):
        """Vectors of self extending a basis of sub (coset representatives)."""
        self._check(sub)
        if not self.contains_subspace(sub):
            raise InputError("quotient-basis requires sub to be contained in self")
        # one running echelon: the rows of sub, then each accepted residual
        f = self.field
        echelon = _echelon(sub.basis)
        out = []
        for v in self.basis:
            w = _eliminate(f, echelon, list(v))
            pc = next((i for i, x in enumerate(w) if x), None)
            if pc is not None:
                out.append(list(v))
                inv = f.inv(w[pc])
                echelon.append((pc, [f.mul(inv, x) for x in w]))
        return out

    def _check(self, other):
        if self.ambient != other.ambient:
            raise InputError("ambient dimension mismatch")

    def __repr__(self):
        return f"Subspace(dim {self.dim} of F^{self.ambient})"
