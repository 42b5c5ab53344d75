"""Exact linear algebra over Q, prime fields F_p and the Laurent ring F[t^±1].

Every value is immutable after construction and every operation is a pure
function, so all of this is safe to share across threads.  There is no
floating point anywhere.  Every entry is canonical:

- a Q entry is a `fractions.Fraction`;
- an F_p entry is an `int` in [0, p);
- an F[t^±1] entry is a trimmed `LaurentPoly` (see its docstring).

So zero is falsy and equality is `==` in every domain, and a domain object
keeps only coercion (`of`, the one way in) and arithmetic.  `Matrix(dom,
rows)` takes canonical entries; `Matrix.from_rows` coerces them.

`rank` over Q first eliminates modulo the prime 2^31 - 1 and trusts that
result only when it is full (min of the two dimensions), which a nonzero
minor proves; every other rank over Q is the pivot count of the exact
`Fraction` RREF.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


class AlgebraError(Exception):
    pass


class Frozen:
    """Base of the immutable value classes.

    A subclass names its fields once, in `_fields`; the constructor takes
    their values positionally in that order, and any later assignment or
    deletion raises.  A subclass whose `_key` names some of its fields
    compares, hashes and prints by those; every other compares by identity.
    """

    _fields: tuple = ()
    _key: tuple = ()

    def __init__(self, *values):
        fields = self._fields
        if len(values) != len(fields):
            raise TypeError(f"{type(self).__name__}() takes {len(fields)}"
                            f" arguments ({', '.join(fields)}),"
                            f" {len(values)} given")
        self.__dict__.update(zip(fields, values))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _key_values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._key)

    def __eq__(self, other):
        if not self._key or other.__class__ is not self.__class__:
            return NotImplemented        # identity, unless other decides
        return self._key_values() == other._key_values()

    def __hash__(self):
        return (hash(self._key_values()) if self._key
                else object.__hash__(self))

    def __repr__(self):
        if not self._key:
            return object.__repr__(self)
        args = ", ".join(f"{name}={getattr(self, name)!r}"
                         for name in self._key)
        return f"{type(self).__name__}({args})"


# ---------------------------------------------------------------------------
# coefficient domains


class RationalField:
    """The rationals, with Fraction entries.

    >>> QQ.add(Fraction(1, 2), Fraction(1, 3))
    Fraction(5, 6)
    >>> QQ.of("-3/6")
    Fraction(-1, 2)
    """

    name = "Q"
    is_field = True

    def of(self, x):
        if isinstance(x, Fraction):
            return x
        if isinstance(x, int):
            return Fraction(x)
        if isinstance(x, str):
            # [sign]digits or [sign]digits/digits, each part read by
            # groups.parse_int: Fraction() alone also takes 1_0, ٣, 0.5, 1e3
            from .groups import parse_int      # groups imports this module
            num, slash, den = x.partition("/")
            try:
                if den.lstrip()[:1] in ("+", "-"):
                    raise ValueError(f"signed denominator {den!r}")
                return Fraction(parse_int(num), parse_int(den) if slash else 1)
            except (ValueError, ZeroDivisionError):
                raise AlgebraError(f"{x!r} is not a rational number") from None
        raise AlgebraError(f"cannot coerce {x!r} into Q")

    # Fraction is immutable, so every caller can share these two
    zero = Fraction(0)
    one = Fraction(1)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if not a:
            raise AlgebraError("division by zero in Q")
        return 1 / a

    def div(self, a, b):
        return a / b

    def __repr__(self):
        return "QQ"


QQ = RationalField()

_prime_fields: dict[int, "PrimeField"] = {}


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


class PrimeField:
    """F_p with int entries stored as canonical representatives in [0, p)."""

    is_field = True

    def __init__(self, p: int):
        if p >= 2**31 or not _is_prime(p):
            raise AlgebraError(f"{p} is not a supported prime")
        self.p = p
        self.name = f"F{p}"

    def of(self, x):
        if isinstance(x, Fraction):
            den = x.denominator % self.p
            if den == 0:
                raise AlgebraError(f"denominator divisible by {self.p}")
            return (x.numerator % self.p) * pow(den, -1, self.p) % self.p
        if isinstance(x, int):
            return x % self.p
        if isinstance(x, str):
            return self.of(QQ.of(x))
        raise AlgebraError(f"cannot coerce {x!r} into {self.name}")

    zero = 0
    one = 1

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if not a:
            raise AlgebraError(f"division by zero in {self.name}")
        return pow(a, -1, self.p)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def __repr__(self):
        return f"GF({self.p})"


def GF(p: int) -> PrimeField:
    if p not in _prime_fields:
        _prime_fields[p] = PrimeField(p)
    return _prime_fields[p]


def field_by_tag(tag: str):
    """Resolve a field tag like 'q', 'f2', 'f5' from the CLI / rep files."""
    tag = tag.lower()
    if tag == "q":
        return QQ
    digits = tag[1:]
    # int() refuses '²' and long texts; a prime below 2^31 has <= 10 digits
    if tag.startswith("f") and digits.isascii() and digits.isdigit():
        if len(digits) > 10:
            raise AlgebraError(f"a number of {len(digits)} digits is not a"
                               " supported prime")
        return GF(int(digits))
    raise AlgebraError(f"unknown field tag {tag!r}")


class LaurentPoly(Frozen):
    """Canonical Laurent polynomial: coeffs[0] is the coefficient of t^low.

    The coefficient tuple has nonzero first and last entry, and the zero
    polynomial is the empty tuple with low = 0, so == and hash compare
    values and only the zero polynomial is falsy.
    """

    _fields = _key = ("low", "coeffs")

    def __bool__(self):
        return bool(self.coeffs)

    @property
    def high(self) -> int:
        return self.low + len(self.coeffs) - 1

    def degree_span(self):
        """deg p = highest minus lowest exponent; None for the zero polynomial."""
        return len(self.coeffs) - 1 if self else None


class LaurentRing:
    """F[t^±1] over an exact coefficient field."""

    is_field = False

    def __init__(self, base):
        self.base = base
        self.name = f"{base.name}[t^±1]"
        self.zero = LaurentPoly(0, ())
        self.one = LaurentPoly(0, (base.one,))

    def poly(self, low: int, coeffs) -> LaurentPoly:
        cs = [self.base.of(c) for c in coeffs]
        lo = low
        while cs and not cs[0]:
            cs.pop(0)
            lo += 1
        while cs and not cs[-1]:
            cs.pop()
        if not cs:
            return self.zero
        return LaurentPoly(lo, tuple(cs))

    def of(self, x):
        if isinstance(x, LaurentPoly):
            return x
        return self.poly(0, [x])

    def monomial(self, c, n: int) -> LaurentPoly:
        return self.poly(n, [c])

    def add(self, a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
        if not a:
            return b
        if not b:
            return a
        lo = min(a.low, b.low)
        hi = max(a.high, b.high)
        cs = [self.base.zero] * (hi - lo + 1)
        for i, c in enumerate(a.coeffs):
            cs[a.low - lo + i] = c
        for i, c in enumerate(b.coeffs):
            cs[b.low - lo + i] = self.base.add(cs[b.low - lo + i], c)
        return self.poly(lo, cs)

    def neg(self, a: LaurentPoly) -> LaurentPoly:
        return LaurentPoly(a.low, tuple(self.base.neg(c) for c in a.coeffs))

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
        if not a or not b:
            return self.zero
        cs = [self.base.zero] * (len(a.coeffs) + len(b.coeffs) - 1)
        for i, ca in enumerate(a.coeffs):
            for j, cb in enumerate(b.coeffs):
                cs[i + j] = self.base.add(cs[i + j], self.base.mul(ca, cb))
        return self.poly(a.low + b.low, cs)

    def divmod_shifted(self, a: LaurentPoly, b: LaurentPoly):
        """(q, r) with a = q*b + r and span(r) < span(b).

        q may have negative exponents; exact for the Euclidean steps used by
        the diagonalization below.
        """
        if not b:
            raise AlgebraError("division by zero polynomial")
        q = self.zero
        r = a
        while r and len(r.coeffs) >= len(b.coeffs):
            c = self.base.div(r.coeffs[-1], b.coeffs[-1])
            mono = self.monomial(c, r.high - b.high)
            q = self.add(q, mono)
            r = self.sub(r, self.mul(mono, b))
        return q, r

    def unit_canonical(self, a: LaurentPoly) -> LaurentPoly:
        """Normalize up to units c*t^n: lowest exponent 0 and monic top."""
        if not a:
            return a
        lead = a.coeffs[-1]
        inv = self.base.inv(lead)
        return self.poly(0, [self.base.mul(c, inv) for c in a.coeffs])

    def __repr__(self):
        return f"LaurentRing({self.base!r})"


def poly_to_str(p: LaurentPoly) -> str:
    """Ascending-exponent sparse form, e.g. '1 - t + t^2'.

    >>> R = LaurentRing(QQ)
    >>> poly_to_str(R.poly(0, [1, -1, 1]))
    '1 - t + t^2'
    >>> poly_to_str(R.poly(-1, [Fraction(1, 2), 0, 3]))
    '1/2*t^-1 + 3*t'
    """
    if not p:
        return "0"
    out = []
    for i, c in enumerate(p.coeffs):
        if not c:
            continue
        e = p.low + i
        cs = str(c)
        neg = cs.startswith("-")
        mag = cs[1:] if neg else cs
        if e == 0:
            body = mag
        else:
            tpart = "t" if e == 1 else f"t^{e}"
            body = tpart if mag == "1" else f"{mag}*{tpart}"
        if not out:
            out.append(f"-{body}" if neg else body)
        else:
            out.append(f"- {body}" if neg else f"+ {body}")
    return " ".join(out)


# ---------------------------------------------------------------------------
# dense matrices


class Matrix:
    """Immutable dense matrix over an explicit domain."""

    __slots__ = ("dom", "m", "n", "rows")

    def __init__(self, dom, rows, m=None, n=None):
        self.dom = dom
        rows = [list(r) for r in rows]
        self.m = len(rows) if m is None else m
        self.n = (len(rows[0]) if rows else 0) if n is None else n
        for r in rows:
            if len(r) != self.n:
                raise AlgebraError("ragged matrix rows")
        self.rows = rows

    @classmethod
    def from_rows(cls, dom, rows):
        return cls(dom, [[dom.of(x) for x in r] for r in rows])

    @classmethod
    def zeros(cls, dom, m, n):
        return cls(dom, [[dom.zero] * n for _ in range(m)], m, n)

    @classmethod
    def identity(cls, dom, n):
        return cls(dom, [[dom.one if i == j else dom.zero for j in range(n)]
                         for i in range(n)], n, n)

    def transpose(self):
        return Matrix(self.dom, [[self.rows[i][j] for i in range(self.m)]
                                 for j in range(self.n)], self.n, self.m)

    def __mul__(self, other):
        if self.n != other.m:
            raise AlgebraError(f"shape mismatch {self.m}x{self.n} * {other.m}x{other.n}")
        d = self.dom
        nonzero = [[(j, x) for j, x in enumerate(r) if x] for r in other.rows]
        out = []
        for ri in self.rows:
            oi = [d.zero] * other.n
            for a, rk in zip(ri, nonzero):
                if rk and a:
                    for j, x in rk:
                        oi[j] = d.add(oi[j], d.mul(a, x))
            out.append(oi)
        return Matrix(d, out, self.m, other.n)

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.m, self.n, self.rows) == (other.m, other.n, other.rows)

    def is_zero_matrix(self):
        return not any(map(any, self.rows))

    def hstack(self, other):
        if self.m != other.m:
            raise AlgebraError("hstack row mismatch")
        return Matrix(self.dom, [self.rows[i] + other.rows[i] for i in range(self.m)],
                      self.m, self.n + other.n)

    def column(self, j):
        return [self.rows[i][j] for i in range(self.m)]

    def columns(self, idx):
        return Matrix(self.dom, [[self.rows[i][j] for j in idx] for i in range(self.m)],
                      self.m, len(idx))

    def row_subset(self, idx):
        return Matrix(self.dom, [self.rows[i] for i in idx], len(idx), self.n)

    def map_entries(self, dom, f):
        return Matrix(dom, [[f(x) for x in r] for r in self.rows], self.m, self.n)

    def __repr__(self):
        return f"<Matrix {self.m}x{self.n} over {self.dom.name}>"


# ---------------------------------------------------------------------------
# elimination over fields


def rref(mat: Matrix):
    """Reduced row echelon form and pivot columns; deterministic pivoting."""
    d = mat.dom
    if not d.is_field:
        raise AlgebraError("rref needs field entries")
    rows = [r[:] for r in mat.rows]
    m, n = mat.m, mat.n
    pivots = []
    r = 0
    for c in range(n):
        pr = None
        for i in range(r, m):
            if rows[i][c]:
                pr = i
                break
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = d.inv(rows[r][c])
        rows[r] = [d.mul(inv, x) for x in rows[r]]
        for i in range(m):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [d.sub(rows[i][j], d.mul(f, rows[r][j])) for j in range(n)]
        pivots.append(c)
        r += 1
        if r == m:
            break
    return Matrix(d, rows, m, n), pivots


_RANK_PRIME = 2**31 - 1


def _sparse_rank_mod(rows, p: int, full: int) -> int:
    """Rank over F_p of integer rows, each an iterable of (column, value).

    Each row, reduced mod p to a dict of its nonzero residues, is reduced
    against the pivot rows found so far, always at its least column, and
    becomes a pivot row if it does not vanish.  Stops early once `full`
    pivots are found.
    """
    pivots = {}
    for pairs in rows:
        row = {j: v % p for j, v in pairs if v % p}
        while row:
            c = min(row)
            piv = pivots.get(c)
            if piv is None:
                inv = pow(row[c], -1, p)
                pivots[c] = {j: v * inv % p for j, v in row.items()}
                if len(pivots) == full:
                    return full
                break
            f = row[c]
            for j, v in piv.items():
                x = (row.get(j, 0) - f * v) % p
                if x:
                    row[j] = x
                else:
                    row.pop(j, None)
    return len(pivots)


def _integral_row(row):
    """(column, value) pairs of a rational row times its lcm denominator."""
    nonzero = [(j, x) for j, x in enumerate(row) if x]
    scale = lcm(*(x.denominator for _, x in nonzero))
    return [(j, x.numerator * (scale // x.denominator)) for j, x in nonzero]


def rank(mat: Matrix) -> int:
    """Rank of a matrix over a field; the empty matrix has rank 0.

    Over F_p the rank is that of a sparse elimination mod p.  Over Q each row
    is scaled by the lcm of its denominators, which keeps the rank, and the
    integer matrix is eliminated mod P = 2^31 - 1.  If that gives
    r = min(m, n), some r x r minor is nonzero mod P, hence a nonzero
    integer, so rank_Q >= r; and rank_Q <= min(m, n) always, so the rank is
    r.  A modular rank below min(m, n) proves nothing (P may divide every
    r x r minor), so that case and every other domain take the exact
    `rref` route.
    """
    if mat.m == 0 or mat.n == 0:
        return 0
    d = mat.dom
    full = min(mat.m, mat.n)
    if isinstance(d, PrimeField):
        return _sparse_rank_mod(map(enumerate, mat.rows), d.p, full)
    if d is QQ and _sparse_rank_mod(map(_integral_row, mat.rows),
                                    _RANK_PRIME, full) == full:
        return full
    return len(rref(mat)[1])


def kernel_basis(mat: Matrix) -> Matrix:
    """Columns form the canonical echelon-derived basis of the null space.

    >>> kernel_basis(Matrix.from_rows(QQ, [[2, -1]])).columns([0]).column(0)
    [Fraction(1, 2), Fraction(1, 1)]
    """
    d = mat.dom
    if mat.n == 0:
        return Matrix.zeros(d, 0, 0)
    if mat.m == 0:
        return Matrix.identity(d, mat.n)
    R, pivots = rref(mat)
    pivset = set(pivots)
    free = [j for j in range(mat.n) if j not in pivset]
    cols = []
    for f in free:
        v = [d.zero] * mat.n
        v[f] = d.one
        for r, p in enumerate(pivots):
            v[p] = d.neg(R.rows[r][f])
        cols.append(v)
    return Matrix(d, [[cols[k][i] for k in range(len(cols))] for i in range(mat.n)],
                  mat.n, len(cols))


def inverse(mat: Matrix) -> Matrix:
    if mat.m != mat.n:
        raise AlgebraError("inverse of non-square matrix")
    inv = solve(mat, Matrix.identity(mat.dom, mat.n))
    if inv is None:
        raise AlgebraError("singular matrix")
    return inv


def solve(mat: Matrix, target: Matrix):
    """One exact solution per target column (free variables zero), or None."""
    d = mat.dom
    aug = mat.hstack(target)
    R, pivots = rref(aug)
    if any(p >= mat.n for p in pivots):
        return None
    sols = []
    for t in range(target.n):
        v = [d.zero] * mat.n
        for r, p in enumerate(pivots):
            v[p] = R.rows[r][mat.n + t]
        sols.append(v)
    return Matrix(d, [[sols[t][i] for t in range(target.n)] for i in range(mat.n)],
                  mat.n, target.n)


# ---------------------------------------------------------------------------
# Euclidean diagonalization over Z and F[t^±1]


def _euclid_diagonal(a, size, neg_quo, addmul):
    """Diagonal of the grid `a` (a list of row lists, changed in place).

    Each step takes the nonzero entry of least `size` (None marks zero) as
    the pivot and clears its row and column with Euclidean steps
    x -> addmul(x, q, y) = x + q*y, where q = neg_quo(x, pivot) is minus the
    Euclidean quotient, so that the remainder is smaller than the pivot; a
    nonzero remainder becomes the new pivot.  Row and column operations are
    invertible, so the nonzero entries of the diagonal multiply to the
    product of the elementary divisors up to a unit; they are not put into a
    divisibility chain.
    """
    m, n = len(a), len(a[0]) if a else 0
    for k in range(min(m, n)):
        best = None
        for i in range(k, m):
            for j in range(k, n):
                s = size(a[i][j])
                if s is not None and (best is None or s < best[0]):
                    best = (s, i, j)
        if best is None:
            break
        _, pi, pj = best
        a[k], a[pi] = a[pi], a[k]
        for row in a:
            row[k], row[pj] = row[pj], row[k]
        while True:
            dirty = False
            for i in range(m):
                if i != k and size(a[i][k]) is not None:
                    q = neg_quo(a[i][k], a[k][k])
                    a[i] = [addmul(x, q, y) for x, y in zip(a[i], a[k])]
                    if size(a[i][k]) is not None:
                        a[k], a[i] = a[i], a[k]
                        dirty = True
            for j in range(n):
                if j != k and size(a[k][j]) is not None:
                    q = neg_quo(a[k][j], a[k][k])
                    for row in a:
                        row[j] = addmul(row[j], q, row[k])
                    if size(a[k][j]) is not None:
                        for row in a:
                            row[k], row[j] = row[j], row[k]
                        dirty = True
            if not dirty:
                break
    return [a[i][i] for i in range(min(m, n))]


def snf_integers(rows) -> tuple:
    """Smith normal form diagonal with divisibility chain, entries >= 0.

    Accepts a Matrix over Q with integral entries or a plain list of rows.

    >>> snf_integers([[2, 0], [0, 3]])
    (1, 6)
    >>> snf_integers([[0]])
    (0,)
    """
    if isinstance(rows, Matrix):
        grid = []
        for r in rows.rows:
            line = []
            for x in r:
                f = Fraction(x)
                if f.denominator != 1:
                    raise AlgebraError("snf_integers needs integral entries")
                line.append(f.numerator)
            grid.append(line)
    else:
        grid = [[int(x) for x in r] for r in rows]
    diag = [abs(x) for x in _euclid_diagonal(
        grid, lambda x: abs(x) if x else None,
        lambda x, p: -(x // p),
        lambda x, q, y: x + q * y)]
    # enforce d1 | d2 | ...; a zero is never followed by a nonzero entry:
    # _euclid_diagonal stops at the first all-zero block, so zeros only
    # trail, and the gcd step below keeps nonzero entries nonzero
    changed = True
    while changed:
        changed = False
        for i in range(len(diag) - 1):
            a, b = diag[i], diag[i + 1]
            if a != 0 and b % a != 0:
                g = gcd(a, b)
                diag[i], diag[i + 1] = g, a * b // g
                changed = True
    return tuple(diag)


# ---------------------------------------------------------------------------
# Laurent polynomial matrices: diagonalization and module orders


def diagonalize_laurent(mat: Matrix) -> list:
    """Diagonal entries of a Euclidean diagonalization of mat over F[t^±1].

    Only the diagonal is computed, no transform matrices, and it is not put
    into a divisibility chain: the nonzero entries count the rank over F(t)
    and multiply to the product of the elementary divisors up to a unit
    c*t^n.  Entries may have negative exponents; the Euclidean size is the
    degree span.
    """
    ring = mat.dom
    if not isinstance(ring, LaurentRing):
        raise AlgebraError("diagonalize_laurent expects Laurent entries")
    return _euclid_diagonal(
        [r[:] for r in mat.rows], LaurentPoly.degree_span,
        lambda x, p: ring.neg(ring.divmod_shifted(x, p)[0]),
        lambda x, q, y: ring.add(x, ring.mul(q, y)))


def pid_homology_order(d_in: Matrix, d_out: Matrix) -> LaurentPoly:
    """Order of H = ker(d_out)/im(d_in) as an F[t^±1]-module.

    d_in maps C_{i+1} -> C_i and d_out maps C_i -> C_{i-1}; the composition
    must vanish.  Checks the shapes and the composition, diagonalizes both
    maps and reads the order off the two diagonals (`_order_from_diagonals`).
    """
    ring = d_in.dom
    if not isinstance(ring, LaurentRing):
        raise AlgebraError("pid_homology_order expects Laurent matrices")
    if d_out.n != d_in.m:
        raise AlgebraError("boundary shapes do not compose")
    if d_out.m and d_in.n and not (d_out * d_in).is_zero_matrix():
        raise AlgebraError("d_out o d_in is nonzero")
    return _order_from_diagonals(ring, d_in.m, diagonalize_laurent(d_in),
                                 diagonalize_laurent(d_out))


def _order_from_diagonals(ring: LaurentRing, size: int, diag_in: list,
                          diag_out: list) -> LaurentPoly:
    """Order of H = ker(d_out)/im(d_in) from the diagonals of d_in, d_out.

    C_i has rank `size`, and d_out o d_in = 0.  F[t^±1] is a PID and
    C_i / ker(d_out) embeds in the free module C_{i-1}, so it is free and
    ker(d_out) is a direct summand of C_i.  Hence coker(d_in) = H ⊕ (a free
    module), the torsion of H is the torsion of coker(d_in), and its order
    is the product of the nonzero diagonal entries of d_in.  H has rank
    size - rank d_in - rank d_out, read off the two diagonals.  Returns 0
    when that rank is positive, otherwise the order canonicalized to lowest
    exponent 0 and monic leading coefficient.
    """
    divisors = [p for p in diag_in if p]
    rank_out = sum(1 for p in diag_out if p)
    if len(divisors) + rank_out < size:
        return ring.zero
    prod = ring.one
    for p in divisors:
        prod = ring.mul(prod, p)
    return ring.unit_canonical(prod)
