"""Exact linear algebra: ranks, kernels, Smith forms, Laurent orders."""

import random
from fractions import Fraction

import pytest

import fox_oracle
from scx.algebra import (GF, QQ, AlgebraError, LaurentRing, Matrix,
                         diagonalize_laurent, field_by_tag, inverse,
                         kernel_basis, pid_homology_order, poly_to_str, rank,
                         snf_integers, solve)

R = LaurentRing(QQ)


def mat(rows, dom=QQ):
    return Matrix.from_rows(dom, rows)


def lmat(rows):
    """Laurent matrix from (low, coeffs) pairs or ints."""
    conv = []
    for row in rows:
        out = []
        for x in row:
            if isinstance(x, tuple):
                out.append(R.poly(x[0], list(x[1])))
            else:
                out.append(R.of(x))
        conv.append(out)
    return Matrix(R, conv)


class TestRank:
    def test_identity(self):
        assert rank(Matrix.identity(QQ, 2)) == 2

    def test_equal_rows_f2(self):
        assert rank(mat([[1, 1], [1, 1]], GF(2))) == 1

    def test_swap_block(self):
        # [I | S - I] with S the 2x2 swap
        m = mat([[1, 0, -1, 1], [0, 1, 1, -1]])
        assert rank(m) == 2

    def test_empty(self):
        assert rank(Matrix.zeros(QQ, 0, 3)) == 0
        assert rank(Matrix.zeros(QQ, 3, 0)) == 0


class TestKernel:
    def test_zero_map(self):
        k = kernel_basis(Matrix.zeros(QQ, 1, 3))
        assert k.n == 3

    def test_identity(self):
        assert kernel_basis(Matrix.identity(QQ, 3)).n == 0

    def test_proportional(self):
        k = kernel_basis(mat([[2, -1]]))
        assert k.n == 1
        v = k.column(0)
        assert v[1] == 2 * v[0]

    def test_exactness(self):
        rng = random.Random(5)
        for _ in range(25):
            m = mat([[rng.randint(-4, 4) for _ in range(4)] for _ in range(3)])
            k = kernel_basis(m)
            assert (m * k).is_zero_matrix()
            assert k.n == m.n - rank(m)


class TestSolveInverse:
    def test_inverse_round_trip(self):
        m = mat([[1, 1], [0, 1]])
        assert m * inverse(m) == Matrix.identity(QQ, 2)

    def test_solve_consistent(self):
        m = mat([[1, 2], [2, 4]])
        target = mat([[1], [2]])
        sol = solve(m, target)
        assert m * sol == target

    def test_solve_inconsistent(self):
        assert solve(mat([[1], [0]]), mat([[0], [1]])) is None


class TestSnfIntegers:
    def test_single(self):
        assert snf_integers([[2]]) == (2,)

    def test_divisibility(self):
        assert snf_integers([[2, 0], [0, 3]]) == (1, 6)

    def test_zero(self):
        assert snf_integers([[0]]) == (0,)

    def test_rank_matches_rational_rank(self):
        rng = random.Random(11)
        for _ in range(40):
            rows = [[rng.randint(-3, 3) for _ in range(rng.randint(1, 4))]
                    for _ in range(rng.randint(1, 4))]
            rows = [r[: len(rows[0])] + [0] * (len(rows[0]) - len(r))
                    for r in rows]
            diag = snf_integers(rows)
            assert sum(1 for d in diag if d) == rank(mat(rows))

    def test_chain(self):
        diag = snf_integers([[6, 0, 0], [0, 10, 0], [0, 0, 15]])
        for a, b in zip(diag, diag[1:]):
            assert b == 0 or a == 0 or b % a == 0


class TestLaurent:
    def test_canonical_form(self):
        p = R.poly(-1, [0, 1, 0])
        assert p.low == 0 and p.coeffs == (Fraction(1),)

    def test_deg_unit_invariant(self):
        p = R.poly(0, [1, 2, 1])
        shifted = R.mul(p, R.monomial(Fraction(3), -2))
        assert shifted.degree_span() == p.degree_span()

    def test_prime_field_entries_are_residues(self):
        """Ints outside [0, p) are reduced at construction, so `.rows` and
        LaurentPoly equality see canonical residues."""
        f5 = GF(5)
        assert Matrix.from_rows(f5, [[7, 1]]).rows == [[2, 1]]
        assert Matrix.from_rows(f5, [[-1, -10]]).rows == [[4, 0]]
        ring = LaurentRing(f5)
        assert ring.poly(0, [7]) == ring.poly(0, [2])
        assert ring.poly(0, [-3, 5, 1]) == ring.poly(0, [2, 0, 1])
        assert not ring.poly(0, [5])

    def test_field_tags(self):
        assert field_by_tag("q") is QQ
        assert field_by_tag("f5").p == 5
        with pytest.raises(AlgebraError):
            field_by_tag("f4")

    def test_oversized_tag_refused_before_trial_division(self, monkeypatch):
        """A tag of 2^31 or more fails on its size at once: trial division
        of (2^31 - 1)^2 would take about 2 * 10^9 steps."""
        import scx.algebra
        monkeypatch.setattr(scx.algebra, "_is_prime",
                            lambda p: pytest.fail(f"trial division of {p}"))
        for p in (2**31, 1000003**2, (2**31 - 1)**2):
            with pytest.raises(AlgebraError, match="not a supported prime"):
                field_by_tag(f"f{p}")


P = 2**31 - 1


class TestCoercion:
    """`of` is the one coercion into a domain: `Matrix.from_rows` and
    `LaurentRing.poly` call it on every entry, so it must return canonical
    elements unchanged and turn int, bool, Fraction and str entries into
    canonical ones."""

    @pytest.mark.parametrize("dom,elements", [
        (QQ, [Fraction(0), Fraction(-3), Fraction(1, 2)]),
        (GF(5), [0, 1, 4]),
        (GF(P), [0, 1, P - 1, (P + 1) // 2]),
        (R, [R.zero, R.one, R.poly(-2, [Fraction(1, 2), 0, -3])]),
    ], ids=["Q", "F5", "F2^31-1", "Q[t]"])
    def test_of_is_idempotent(self, dom, elements):
        for x in elements:
            assert type(dom.of(x)) is type(x) and dom.of(x) == x

    @pytest.mark.parametrize("dom,expected", [
        (QQ, [Fraction(1), Fraction(-3), Fraction(7), Fraction(1, 2),
              Fraction(1, 2)]),
        (GF(5), [1, 2, 2, 3, 3]),
        (GF(P), [1, P - 3, 7, (P + 1) // 2, (P + 1) // 2]),
    ], ids=["Q", "F5", "F2^31-1"])
    def test_entries(self, dom, expected):
        entries = [True, -3, 7, Fraction(1, 2), "1/2"]
        exact = Fraction if dom is QQ else int
        row = Matrix.from_rows(dom, [entries]).rows[0]
        assert row == expected and all(type(x) is exact for x in row)
        ring = LaurentRing(dom)
        poly = ring.poly(-1, entries)
        assert poly.low == -1 and poly.coeffs == tuple(expected)
        assert all(type(x) is exact for x in poly.coeffs)
        laurent = Matrix.from_rows(ring, [entries]).rows[0]
        assert laurent == [ring.poly(0, [c]) for c in expected]
        assert Matrix.from_rows(ring, [laurent]).rows[0] == laurent


def _det(m):
    """det m up to a unit: the order of the cokernel of a square m."""
    return pid_homology_order(m, Matrix.zeros(R, 0, m.n))


class TestDetPoly:
    def test_one_by_one(self):
        d = _det(lmat([[(0, (-1, 1))]]))
        assert poly_to_str(d) == "-1 + t"

    def test_identity_minus_t(self):
        m = lmat([[(0, (1, -1)), 0], [0, (0, (1, -1))]])
        d = _det(m)
        assert poly_to_str(d) == "1 - 2*t + t^2"
        assert d.degree_span() == 2

    def test_singular_a(self):
        # A = diag(1,0), B = I: det(A + tB) = t(1+t) = 1 + t up to a unit,
        # degree 1 < 2
        m = lmat([[(0, (1, 1)), 0], [0, (1, (1,))]])
        d = _det(m)
        assert poly_to_str(d) == "1 + t"
        assert d.degree_span() == 1

    def test_empty(self):
        assert _det(Matrix.zeros(R, 0, 0)) == R.one

    def test_vs_expansion(self):
        rng = random.Random(7)
        for _ in range(20):
            n = rng.randint(1, 3)
            m = lmat([[(rng.randint(-1, 1),
                        tuple(rng.randint(-2, 2) for _ in range(2)))
                       for _ in range(n)] for _ in range(n)])
            assert _det(m) == R.unit_canonical(_laplace(m))


def _laplace(m):
    if m.n == 0:
        return R.one
    if m.n == 1:
        return m.rows[0][0]
    total = R.zero
    sub = [row[1:] for row in m.rows]
    for i in range(m.m):
        minor = Matrix(R, [r for j, r in enumerate(sub) if j != i])
        term = R.mul(m.rows[i][0], _laplace(minor))
        total = R.add(total, term) if i % 2 == 0 else R.sub(total, term)
    return total


def _as_dict(p):
    return {p.low + e: c for e, c in enumerate(p.coeffs) if c}


class TestDiagonalizeLaurent:
    def test_against_oracle(self):
        rng = random.Random(13)
        for _ in range(15):
            m_, n_ = rng.randint(1, 3), rng.randint(1, 3)
            a = lmat([[(rng.randint(-1, 1),
                        tuple(rng.randint(-2, 2) for _ in range(2)))
                       for _ in range(n_)] for _ in range(m_)])
            nonzero = [p for p in diagonalize_laurent(a) if p]
            oracle = [d for d in fox_oracle.smith_diagonal(
                [[_as_dict(p) for p in row] for row in a.rows]) if d]
            assert len(nonzero) == len(oracle)
            prod = R.one
            for p in nonzero:
                prod = R.mul(prod, p)
            oracle_prod = fox_oracle.pmono(1)
            for d in oracle:
                oracle_prod = fox_oracle.pmul(oracle_prod, d)
            assert fox_oracle.pcanon(_as_dict(prod)) == \
                fox_oracle.pcanon(oracle_prod)
            if m_ == n_:
                det = R.unit_canonical(_laplace(a))
                assert det == (R.unit_canonical(prod)
                               if len(nonzero) == n_ else R.zero)

    def test_rejects_non_laurent(self):
        with pytest.raises(AlgebraError):
            diagonalize_laurent(mat([[1]]))


class TestPidHomologyOrder:
    def test_single_t_minus_one(self):
        d_in = lmat([[(0, (-1, 1))]])
        d_out = Matrix.zeros(R, 0, 1)
        order = pid_homology_order(d_in, d_out)
        assert poly_to_str(order) == "-1 + t"

    def test_exact_complex_unit(self):
        d_in = Matrix.identity(R, 2)
        d_out = Matrix.zeros(R, 0, 2)
        assert poly_to_str(pid_homology_order(d_in, d_out)) == "1"

    def test_free_rank_gives_zero(self):
        d_in = lmat([[0]])
        d_out = lmat([[0]])
        assert not pid_homology_order(d_in, d_out)

    def test_rejects_noncomposing(self):
        d_in = Matrix.identity(R, 1)
        d_out = Matrix.identity(R, 1)
        with pytest.raises(AlgebraError):
            pid_homology_order(d_in, d_out)

    def test_kernel_quotient(self):
        # d_out = [1, -1] (row); kernel = (1,1); d_in = column (t-1, t-1)
        d_out = lmat([[1, -1]])
        d_in = lmat([[(0, (-1, 1))], [(0, (-1, 1))]])
        order = pid_homology_order(d_in, d_out)
        assert poly_to_str(order) == "-1 + t"
