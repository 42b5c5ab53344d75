"""Fast paths against slow, independent oracles kept here.

- `algebra.rank` (sparse elimination mod p, trusted over Q only at full
  rank) against the pivot count of the `Fraction`/F_p `rref`;
- `Matrix.__mul__` (sparse right-hand rows) against a naive triple loop;
- `chain.specialize` (cached nonzero entries of each word, each coefficient
  coerced once, untouched slots written, not summed) against a dense
  builder that evaluates every word with the naive product and fills every
  k x k block entry by entry: on the corpus, on random and perturbed
  complexes and on copies of both whose terms collide and cancel, over Q,
  F5 and Q[t^±1];
- `alex.thurston_bound` (one specialization, one diagonal per boundary map)
  against a fresh specialization and `pid_homology_order` for each degree;
- `FiniteQuotient.transitive`, `.image_order` and `regular_representation`
  (all read off the breadth-first image `elements`) against a point-orbit
  search, a closure under products and a regular representation on the
  sorted image; `nonproduct_search` against the loop that built that sorted
  representation and caught `SizeLimitError` past the cap;
- `chain._homology_basis` (the pivot columns of one rref) against a greedy
  choice of kernel columns, one rank call per column;
- `EquivariantComplex.abelian_boundary_check` (sums over pairs of boundary
  terms) against the product of per-degree layers of reduced monomials;
- `EquivariantComplex.tree_paths`, through `pi1_generator_words` and
  `sutured._check_zero_holonomy_tree`, against the two breadth-first
  searches it replaced;
- `EquivariantComplex.euler_characteristic` and `chain.alternating_sum`,
  through `chi_of`, `component_complexities` and `euler_check`, against the
  sums of (-1)^dim each of those wrote out;
- `algebra.inverse` (one `solve` against the identity) against the right
  half of rref([A | I]);
- the relator tests shared by `check_hom`, `make_representation` and
  `enumerate_quotients` against tracing points through each relator;
- `groups._action_representation`, through `permutation_representation`
  and `regular_representation`, against matrices written entry by entry;
- truthiness and `==` on the entries every `Matrix` and Laurent operation
  returns, and `Matrix.__eq__` on whole matrices, against the zero tests and
  equalities each coefficient domain defined entry by entry.
"""

import itertools
import random
from fractions import Fraction

import pytest

import scx.alex
import scx.chain
from scx.algebra import (GF, QQ, AlgebraError, LaurentPoly, LaurentRing,
                         Matrix, diagonalize_laurent, inverse, kernel_basis,
                         pid_homology_order, rank, rref, solve)
from scx.alex import det_form_check, laurent_twist, thurston_bound
from scx.chain import (MAX_DIM, ChainError, EquivariantComplex,
                       SpecializeError, betti, euler_check, induced_map,
                       specialize)
from scx.groups import (CohomologyClass, GroupError, Representation,
                        SizeLimitError, _action_representation, check_hom,
                        enumerate_quotients, eval_word, eval_word_perm,
                        make_representation, perm_group_order, perm_inv,
                        perm_mul, permutation_matrix,
                        permutation_representation, regular_representation,
                        trivial_representation, word_exponent_vector, word_inv,
                        word_mul)
from scx.models import fibered_cut
from scx.scxio import ScxDocument
from scx.sutured import (PreconditionError, _check_zero_holonomy_tree, double,
                         nonproduct_search)

from conftest import BUNDLED, SUTURED_BUNDLED, random_presentation_doc

P = 2**31 - 1


def naive_mul(a, b):
    d = a.dom
    rows = []
    for i in range(a.m):
        row = []
        for j in range(b.n):
            acc = d.zero
            for k in range(a.n):
                acc = d.add(acc, d.mul(a.rows[i][k], b.rows[k][j]))
            row.append(acc)
        rows.append(row)
    return Matrix(d, rows, a.m, b.n)


def naive_eval_word(rep, word):
    acc = Matrix.identity(rep.dom, rep.dim)
    for k in word:
        acc = naive_mul(acc, rep.gen_matrix(abs(k), 1 if k > 0 else -1))
    return acc


def dense_boundary(cx, rep, rel_cells, d):
    """Boundary matrix C_d -> C_{d-1} of (cx, rel), one entry at a time."""
    dom, k = rep.dom, rep.dim
    rows = [c for c in cx.cells[d - 1] if c not in rel_cells]
    cols = [c for c in cx.cells[d] if c not in rel_cells]
    idx = {c: i for i, c in enumerate(rows)}
    mat = [[dom.zero] * (k * len(cols)) for _ in range(k * len(rows))]
    for j, cell in enumerate(cols):
        for coeff, word, target in cx.boundary.get(cell, ()):
            if target in rel_cells:
                continue
            block = naive_eval_word(rep, word)
            for a in range(k):
                for b in range(k):
                    v = dom.mul(dom.of(coeff), block.rows[a][b])
                    i0, j0 = idx[target] * k + a, j * k + b
                    mat[i0][j0] = dom.add(mat[i0][j0], v)
    return Matrix(dom, mat, k * len(rows), k * len(cols))


def oracle_rank(m):
    return len(rref(m)[1]) if m.m and m.n else 0


def random_low_rank(rng, m, n, r, entry):
    """m x n product of m x r and r x n matrices of random entries."""
    left = [[entry() for _ in range(r)] for _ in range(m)]
    right = [[entry() for _ in range(n)] for _ in range(r)]
    return [[sum((left[i][t] * right[t][j] for t in range(r)), Fraction(0))
             for j in range(n)] for i in range(m)]


class TestRankOverQ:
    def test_random_rank_deficient(self):
        rng = random.Random(11)
        for _ in range(120):
            m, n = rng.randint(1, 7), rng.randint(1, 7)
            r = rng.randint(0, min(m, n))
            rows = random_low_rank(rng, m, n, r,
                                   lambda: Fraction(rng.randint(-3, 3)))
            mat = Matrix.from_rows(QQ, rows)
            assert rank(mat) == oracle_rank(mat), rows

    def test_non_unit_denominators(self):
        rng = random.Random(12)
        for _ in range(120):
            m, n = rng.randint(1, 6), rng.randint(1, 6)
            r = rng.randint(0, min(m, n))
            rows = random_low_rank(
                rng, m, n, r,
                lambda: Fraction(rng.randint(-5, 5), rng.randint(1, 7)))
            mat = Matrix.from_rows(QQ, rows)
            assert rank(mat) == oracle_rank(mat), rows

    def test_sparse_full_rank(self):
        rng = random.Random(13)
        for _ in range(60):
            m, n = rng.randint(1, 12), rng.randint(1, 12)
            rows = [[Fraction(rng.choice((-1, 1)) * rng.randint(1, 4))
                     if rng.random() < 0.25 else Fraction(0)
                     for _ in range(n)] for _ in range(m)]
            mat = Matrix.from_rows(QQ, rows)
            assert rank(mat) == oracle_rank(mat), rows

    @pytest.mark.parametrize("rows, expected", [
        ([[P]], 1),
        ([[P, 2 * P], [3 * P, 5 * P]], 2),
        ([[1, 0], [0, P]], 2),
        ([[1, 1], [1, 1 + P]], 2),
        ([[Fraction(P, 2), Fraction(1, 3)], [Fraction(3 * P, 4), 0]], 2),
        ([[Fraction(1, P), 1], [1, P]], 1),
        ([[P, 0, 0], [0, P, 0]], 2),
        ([[2 * P], [P]], 1),
    ])
    def test_multiples_of_the_prime(self, rows, expected):
        """Singular mod 2^31 - 1 but not over Q: the exact fallback runs."""
        mat = Matrix.from_rows(QQ, rows)
        assert oracle_rank(mat) == expected
        assert rank(mat) == expected

    def test_random_multiples_of_the_prime(self):
        rng = random.Random(14)
        for _ in range(80):
            m, n = rng.randint(1, 5), rng.randint(1, 5)
            r = rng.randint(0, min(m, n))
            rows = random_low_rank(rng, m, n, r,
                                   lambda: Fraction(rng.randint(-2, 2)))
            rows = [[x * P if rng.random() < 0.5
                     else x + P * rng.randint(-1, 1) for x in row]
                    for row in rows]
            mat = Matrix.from_rows(QQ, rows)
            assert rank(mat) == oracle_rank(mat), rows


class TestRankOverPrimeFields:
    @pytest.mark.parametrize("p", [2, 5, P])
    def test_random(self, p):
        dom = GF(p)
        rng = random.Random(p)
        for _ in range(120):
            m, n = rng.randint(1, 7), rng.randint(1, 7)
            r = rng.randint(0, min(m, n))
            left = [[rng.randint(-3 * p, 3 * p) for _ in range(r)]
                    for _ in range(m)]
            right = [[rng.randint(0, p - 1) if rng.random() < 0.6 else 0
                      for _ in range(n)] for _ in range(r)]
            rows = [[sum(left[i][t] * right[t][j] for t in range(r))
                     for j in range(n)] for i in range(m)]
            mat = Matrix.from_rows(dom, rows)
            assert rank(mat) == oracle_rank(mat), (p, rows)

    @pytest.mark.parametrize("p", [2, 5, P])
    def test_non_canonical_entries(self, p):
        """Entries outside [0, p) are read modulo p, as `rref` reads them."""
        dom = GF(p)
        mat = Matrix.from_rows(dom, [[p, 1], [2 * p, p + 1], [-p, 3]])
        assert rank(mat) == oracle_rank(mat)


def _laurent(rng, ring):
    return ring.poly(rng.randint(-2, 2),
                     [rng.randint(-2, 2) for _ in range(rng.randint(0, 3))])


class TestMatrixProduct:
    @pytest.mark.parametrize("dom", [QQ, GF(5), GF(P)],
                             ids=["Q", "F5", "Fbig"])
    def test_fields(self, dom):
        rng = random.Random(21)
        for _ in range(60):
            m, k, n = (rng.randint(0, 5) for _ in range(3))

            def entry():
                if rng.random() < 0.4:
                    return 0
                return Fraction(rng.randint(-4, 4), rng.randint(1, 3)) \
                    if dom is QQ else rng.randint(0, dom.p - 1)

            a = Matrix.from_rows(dom, [[entry() for _ in range(k)]
                                       for _ in range(m)]) if m else \
                Matrix.zeros(dom, 0, k)
            b = Matrix.from_rows(dom, [[entry() for _ in range(n)]
                                       for _ in range(k)]) if k else \
                Matrix.zeros(dom, 0, n)
            prod = a * b
            assert (prod.m, prod.n) == (m, n)
            assert prod == naive_mul(a, b)

    @pytest.mark.parametrize("base", [QQ, GF(5)], ids=["Q", "F5"])
    def test_laurent(self, base):
        ring = LaurentRing(base)
        rng = random.Random(22)
        for _ in range(40):
            m, k, n = (rng.randint(1, 4) for _ in range(3))
            a = Matrix(ring, [[_laurent(rng, ring) for _ in range(k)]
                              for _ in range(m)])
            b = Matrix(ring, [[_laurent(rng, ring) for _ in range(n)]
                              for _ in range(k)])
            assert a * b == naive_mul(a, b)

    def test_eval_word_matches_naive(self, docs):
        pres = docs["product_T1"].presentation()
        q = list(enumerate_quotients(pres, 3))[7]
        rep = regular_representation(q)
        for word in [(), (1,), (-2,), (1, 2, -1, -2), (2, 2, 1, -2)]:
            assert eval_word(rep, word) == naive_eval_word(rep, word)


def _representations(pres, dom):
    reps = [trivial_representation(pres, k, dom) for k in (1, 2, 3)]
    for q in enumerate_quotients(pres, 3):
        reps.append(permutation_representation(q, dom))
        reps.append(regular_representation(q, dom))
    return reps


def _collided(doc, rng):
    """doc with the same chains written with colliding terms: in each 2- or
    3-cell boundary, one term (c, w, t) becomes (2, w, t), (-3, w, t) and
    (c + 1, w, t), after terms (1, u, s), (5, u, s) and (-6, u, s) that
    cancel, with u a random word and s a target the boundary already hits.
    So blocks land on slots that hold a sum that cancelled to zero; the
    term 5 scales its entries to zero over F5, and c + 1 = 0 (c = -1) in
    every domain."""
    dims = dict(doc.cells)
    boundaries = dict(doc.boundaries)
    for cell, terms in doc.boundaries.items():
        if dims[cell] < 2 or not terms:
            continue
        terms = list(terms)
        k = rng.randrange(len(terms))
        c, w, t = terms[k]
        terms[k:k + 1] = [(2, w, t), (-3, w, t), (c + 1, w, t)]
        s = rng.choice(terms)[2]
        u = word_mul(*((g * rng.choice([1, -1]),) for g in rng.choices(
            range(1, len(doc.gens) + 1), k=rng.randint(0, 3)))) \
            if doc.gens else ()
        boundaries[cell] = ((1, u, s), (5, u, s), (-6, u, s), *terms)
    return ScxDocument(gens=doc.gens, relators=doc.relators, cells=doc.cells,
                       boundaries=boundaries, subs=doc.subs)


def assert_specialize_matches_dense(cx, rep, rel_cells, label):
    """specialize against `dense_boundary`: equal matrices, or a
    SpecializeError at the first degree whose product of dense matrices is
    nonzero (`Matrix.__mul__` has its own oracle above).  The twisted
    complex, or None when rejected."""
    dense = {d: dense_boundary(cx, rep, rel_cells, d)
             for d in range(1, MAX_DIM + 1)}
    bad = next((d for d in range(2, MAX_DIM + 1)
                if not (dense[d - 1] * dense[d]).is_zero_matrix()), None)
    try:
        tc = specialize(cx, rep, rel_cells)
    except SpecializeError as e:
        assert bad is not None and f" at degree {bad}: " in str(e), (label, e)
        return None
    assert bad is None, label
    for d in range(1, MAX_DIM + 1):
        assert tc.boundary_matrix(d) == dense[d], (label, d)
    return tc


@pytest.mark.parametrize("name", BUNDLED)
@pytest.mark.parametrize("dom", [QQ, GF(5)], ids=["Q", "F5"])
def test_specialize_matches_dense_builder(docs, name, dom):
    """On the corpus; its `_collided` copy has the same chains, so it must
    give the matrices just checked."""
    doc = docs[name]
    cx = doc.complex()
    collided = _bare_complex(_collided(doc, random.Random(name)))
    rels = [frozenset()] + [cells for _, cells in sorted(doc.subs.items())]
    for rep in _representations(cx.group, dom):
        for rel in rels:
            label = (name, rep.describe(), sorted(rel))
            tc = assert_specialize_matches_dense(cx, rep, rel, label)
            assert specialize(collided, rep, rel).mats == tc.mats, label


def _cocycle(pres):
    """The first nonzero class with values in -1..2 that vanishes on the
    relators, else the zero class."""
    for values in itertools.product((1, -1, 2, 0), repeat=pres.ngens):
        phi = CohomologyClass(dict(zip(pres.gens, values)))
        if any(values) and phi.is_cocycle(pres):
            return phi
    return CohomologyClass({})


@pytest.mark.parametrize("dom,counts", [
    (QQ, (1072, 56)), (GF(5), (1072, 56)), (LaurentRing(QQ), (1072, 108))],
    ids=["Q", "F5", "Q[t]"])
def test_specialize_matches_dense_builder_on_random_complexes(dom, counts):
    """Random presentation complexes and two `_perturbed` copies of each,
    each also as its `_collided` copy, under trivial, permutation and
    regular representations of sampled quotients, over Q, F5 and, twisted
    by a cocycle, Q[t^±1]; with and without the vertex as the subcomplex.
    Only perturbed copies may fail d^2 = 0; `counts` pins how many cases
    ran and how many of them failed."""
    rng = random.Random(24)
    ran = rejected = 0
    for _ in range(15):
        base = random_presentation_doc(rng)
        pres = base.presentation()
        variants = [(base, False)] + [(_perturbed(base, rng), True)
                                      for _ in range(2)]
        variants = [(v, bent) for v, bent in variants if v is not None]
        variants += [(_collided(v, rng), bent) for v, bent in variants]
        over = dom.base if isinstance(dom, LaurentRing) else dom
        reps = [trivial_representation(pres, k, over) for k in (1, 2)]
        quotients = list(enumerate_quotients(pres, 3))
        for q in rng.sample(quotients, min(3, len(quotients))):
            reps += [permutation_representation(q, over),
                     regular_representation(q, over)]
        if isinstance(dom, LaurentRing):
            phi = _cocycle(pres)
            reps = [laurent_twist(rep, phi) for rep in reps]
        for doc, bent in variants:
            cx = _bare_complex(doc)
            for rep in reps:
                for rel in (frozenset(), frozenset({"v"})):
                    tc = assert_specialize_matches_dense(
                        cx, rep, rel, (doc.boundaries, rep.describe(), rel))
                    assert tc is not None or bent, doc.boundaries
                    ran += 1
                    rejected += tc is None
    assert (ran, rejected) == counts


def oracle_orders(cx, phi, rep):
    """Delta_0..2, each from its own specialization and both diagonals."""
    orders = []
    for i in range(3):
        tc = specialize(cx, laurent_twist(rep, phi), None)
        orders.append(pid_homology_order(tc.boundary_matrix(i + 1),
                                         tc.boundary_matrix(i)))
    return orders


@pytest.mark.parametrize("name,phi", [
    ("trefoil", "ab"), ("figure8", "ab"), ("trefoil_fibered", "dual"),
    ("d3_two_sutures", {}), ("meridional_solidtorus", {"x": 1}),
    ("trefoil", {"x": 0, "y": 0})],
    ids=["trefoil", "figure8", "trefoil_fibered", "d3_two_sutures",
         "meridional_solidtorus", "trefoil_zero_class"])
@pytest.mark.parametrize("dom", [QQ, GF(5)], ids=["Q", "F5"])
def test_thurston_bound_matches_per_degree_orders(docs, name, phi, dom):
    doc = docs[name]
    cx = doc.complex()
    phi = CohomologyClass(doc.phis[phi] if isinstance(phi, str) else phi)
    for rep in _representations(cx.group, dom):
        got = [o.poly for o in thurston_bound(cx, phi, rep).orders]
        assert got == oracle_orders(cx, phi, rep), (name, rep.describe())


# ---------------------------------------------------------------------------
# finite quotients: the breadth-first image against searches of its own


def orbit_transitive(images, n):
    """Breadth-first search over points from 0, by each image and inverse."""
    reach, frontier = {0}, [0]
    while frontier:
        nxt = []
        for x in frontier:
            for p in images:
                for y in (p[x], p.index(x)):
                    if y not in reach:
                        reach.add(y)
                        nxt.append(y)
        frontier = nxt
    return len(reach) == n


def closure(images, n):
    """The generated subgroup: close {identity} under left products."""
    group = {tuple(range(n))}
    while True:
        new = {perm_mul(p, g) for g in group for p in images} - group
        if not new:
            return group
        group |= new


def sorted_regular(q, dom=QQ, cap=64):
    """Left multiplication on the sorted image.  Like the closure that once
    built it, it raises SizeLimitError only when a non-identity element
    takes the count past cap."""
    elements = sorted(closure(q.images, q.degree))
    if len(elements) > cap and len(elements) > 1:
        raise SizeLimitError(f"more than {cap} elements")
    index = {g: i for i, g in enumerate(elements)}
    actions = [tuple(index[perm_mul(p, g)] for g in elements)
               for p in q.images]
    return Representation(
        q.pres, len(elements), dom,
        tuple(permutation_matrix(dom, a) for a in actions),
        tuple(permutation_matrix(dom, perm_inv(a)) for a in actions),
        "regular-of-quotient", True)


def _quotient_presentations(docs):
    return {"F2": docs["product_T1"].presentation(),
            "trefoil": docs["trefoil"].presentation()}


@pytest.mark.parametrize("group", ["F2", "trefoil"])
def test_quotient_image_matches_searches(docs, group):
    pres = _quotient_presentations(docs)[group]
    for q in enumerate_quotients(pres, 4):
        n = q.degree
        assert q.transitive == orbit_transitive(q.images, n), q.describe()
        assert q.image_order == perm_group_order(list(q.images))
        assert q.elements[0] == tuple(range(n))
        assert len(set(q.elements)) == q.image_order
        assert set(q.elements) == closure(q.images, n)


@pytest.mark.parametrize("group", ["F2", "trefoil"])
def test_regular_conjugate_to_sorted(docs, group):
    """The breadth-first basis only relabels the sorted one: P maps basis
    vector i to the sorted position of elements[i], and P * reg(g) =
    sorted(g) * P for every generator."""
    pres = _quotient_presentations(docs)[group]
    for q in enumerate_quotients(pres, 4):
        reg, ref = regular_representation(q), sorted_regular(q)
        position = {g: i for i, g in enumerate(sorted(q.elements))}
        P = permutation_matrix(QQ, tuple(position[g] for g in q.elements))
        for m, m_ref in zip(reg.mats, ref.mats):
            assert P * m == m_ref * P, q.describe()


def test_regular_betti_matches_sorted(sutured):
    sc = sutured["product_T1"]
    rminus = sc.rminus()
    for q in enumerate_quotients(sc.cx.group, 4):
        assert betti(specialize(sc.cx, regular_representation(q), rminus)) \
            == betti(specialize(sc.cx, sorted_regular(q), rminus)), \
            q.describe()


def oracle_nonproduct(sc, max_degree, cap):
    """(status, witness, log) of the non-product loop that built the sorted
    regular representation and fell back to the index test on
    SizeLimitError."""
    rminus = sc.rminus()
    log = {"degrees": f"2..{max_degree}", "representations_tested": 0}
    comps = sc.cx.components(sc.sub_cells("R-"))
    if len(comps) > 1:
        bv = betti(specialize(
            sc.cx, trivial_representation(sc.cx.group, 1, QQ), rminus))
        if bv[1] >= 1:
            return ("certified-not-product",
                    {"test": "disconnected R-", "components": len(comps),
                     "b_pair_rminus": str(bv)}, log)
    gen_words = sc.cx.pi1_generator_words(sc.sub_cells("R-"))
    for q in enumerate_quotients(sc.cx.group, max_degree):
        log["representations_tested"] += 1
        images = [eval_word_perm(q.images, w, q.degree) for w in gen_words]
        sub = len(closure(images, q.degree))
        total = len(closure(q.images, q.degree))
        detail = {"quotient": q.describe(), "im_order_rminus": sub,
                  "im_order_total": total}
        if sub < total:
            detail["test"] = "index"
            detail["dim_h0_rminus_regular"] = total // sub
            detail["dim_h0_total_regular"] = 1
        direct = None
        try:
            direct = betti(specialize(sc.cx, sorted_regular(q, QQ, cap),
                                      rminus))
            detail["b_pair_rminus_regular"] = str(direct)
        except SizeLimitError:
            detail["note"] = "regular representation over cap, index test only"
        if sub < total:
            return "certified-not-product", detail, log
        if direct is not None and direct[1] != 0:
            detail["test"] = "direct"
            return "certified-not-product", detail, log
    return "unknown", None, log


@pytest.mark.parametrize("name", SUTURED_BUNDLED)
def test_nonproduct_caps_match_oracle(sutured, name):
    sc = sutured[name]
    got = {}
    for cap in (0, 1, 5, 100):
        v = nonproduct_search(sc, 3, regular_cap=cap)
        got[cap] = (v.status, v.witness, v.log)
        assert got[cap] == oracle_nonproduct(sc, 3, cap), (name, cap)
    assert got[0] == got[1], name


# ---------------------------------------------------------------------------
# homology bases: one rref against a greedy choice


def greedy_homology_basis(tc, d):
    """Kernel columns taken in order, each kept iff it raises the rank of
    im B plus the columns kept so far."""
    K = scx.chain.kernel_basis(tc.boundary_matrix(d))
    B = tc.boundary_matrix(d + 1)
    chosen, current, cur_rank = [], B, rank(B)
    for j in range(K.n):
        cand = current.hstack(K.columns([j]))
        r = rank(cand)
        if r > cur_rank:
            current, cur_rank = cand, r
            chosen.append(j)
    return K.columns(chosen), B


def _small_representations(pres):
    reps = [trivial_representation(pres, k, QQ) for k in (1, 2)]
    reps += [permutation_representation(q)
             for q in enumerate_quotients(pres, 3)]
    return reps


@pytest.mark.parametrize("name", BUNDLED)
def test_homology_basis_matches_greedy(docs, name, monkeypatch):
    doc = docs[name]
    cx = doc.complex()
    subs = [cx.subcomplex(sub, cells) for sub, cells in sorted(doc.subs.items())]
    for rep in _small_representations(cx.group):
        full = specialize(cx, rep, None)
        pieces = [full] + [scx.chain._restrict(cx, full, s) for s in subs]
        for tc in pieces:
            for d in range(MAX_DIM + 1):
                got = scx.chain._homology_basis(tc, d)
                want = greedy_homology_basis(tc, d)
                assert got[0] == want[0], (name, rep.describe(), d)
        # maps induced by R- and R+, in the degrees det_form_check asks for
        rsubs = [s for s in subs if s.name in ("R-", "R+")]
        got = [induced_map(cx, s, rep, d) for s in rsubs for d in range(3)]
        with monkeypatch.context() as m:
            m.setattr(scx.chain, "_homology_basis", greedy_homology_basis)
            want = [induced_map(cx, s, rep, d) for s in rsubs for d in range(3)]
        assert got == want, (name, rep.describe())


def test_det_form_check_matches_greedy(monkeypatch):
    cut = fibered_cut()
    w_cx = cut["w_doc"].complex()
    phi = CohomologyClass(cut["w_doc"].phis["dual"])

    def fields(report):
        return (report.applicable, report.match, report.reversed_match,
                report.det_side, report.order_side, report.detail)

    for rep in _small_representations(w_cx.group):
        for i in range(3):
            got = det_form_check(w_cx, phi, rep, cut, i)
            with monkeypatch.context() as m:
                m.setattr(scx.chain, "_homology_basis", greedy_homology_basis)
                want = det_form_check(w_cx, phi, rep, cut, i)
            assert fields(got) == fields(want), (rep.describe(), i)


def test_det_form_check_specializes_four_times(monkeypatch):
    """One specialization of X- and one of R- per cell map give both induced
    maps; the fourth is the twisted order's.  A rejected stable letter
    specializes nothing."""
    cut = fibered_cut()
    w_cx = cut["w_doc"].complex()
    phi = CohomologyClass(cut["w_doc"].phis["dual"])
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0])
        return specialize(*args, **kwargs)

    monkeypatch.setattr(scx.chain, "specialize", counted)
    monkeypatch.setattr(scx.alex, "specialize", counted)
    applicable = 0
    for rep in _small_representations(w_cx.group):
        for i in range(3):
            calls.clear()
            report = det_form_check(w_cx, phi, rep, cut, i)
            expected = 4 if report.applicable else 0
            assert len(calls) == expected, (rep.describe(), i, report.detail)
            applicable += report.applicable
    assert applicable > 0


# ---------------------------------------------------------------------------
# the abelian d^2 check: direct term pairs against layer products


def oracle_abelian_failures(cx):
    """{degree: blocks} where d_{d-1} d_d is nonzero under abelianization,
    from per-degree layers of reduced monomials multiplied over every pair
    of (lower, upper) entries: the check as first written."""
    ngens = cx.group.ngens
    lattice = scx.chain._hnf([list(word_exponent_vector(r, ngens))
                              for r in cx.group.relators])

    def mono(word):
        return scx.chain._ab_reduce(list(word_exponent_vector(word, ngens)),
                                    lattice)

    layers = {}
    for d in range(1, MAX_DIM + 1):
        idx = {c: i for i, c in enumerate(cx.cells[d - 1])}
        layer = {}
        for j, cell in enumerate(cx.cells[d]):
            for coeff, word, target in cx.boundary[cell]:
                entry = layer.setdefault((idx[target], j), {})
                m = mono(word)
                entry[m] = entry.get(m, 0) + coeff
                if entry[m] == 0:
                    del entry[m]
        layers[d] = layer
    failures = {}
    for d in range(2, MAX_DIM + 1):
        prod = {}
        for (i, t1), p1 in layers[d - 1].items():
            for (t2, j), p2 in layers[d].items():
                if t1 != t2:
                    continue
                entry = prod.setdefault((i, j), {})
                for m1, c1 in p1.items():
                    for m2, c2 in p2.items():
                        m = scx.chain._ab_reduce(
                            [a + b for a, b in zip(m1, m2)], lattice)
                        entry[m] = entry.get(m, 0) + c1 * c2
                        if entry[m] == 0:
                            del entry[m]
        blocks = {key for key, entry in prod.items() if entry}
        if blocks:
            failures[d] = blocks
    return failures


def _bare_complex(doc):
    """doc's complex without the load-time d^2 check."""
    cells = {}
    for name, dim in doc.cells:
        cells.setdefault(dim, []).append(name)
    return EquivariantComplex(doc.presentation(), cells, doc.boundaries)


def _perturbed(doc, rng):
    """doc with one term of one 2- or 3-cell changed in its coefficient,
    its word or its target; None if doc has no such cell."""
    dims = dict(doc.cells)
    upper = sorted(c for c, d in doc.cells if d >= 2 and doc.boundaries[c])
    if not upper:
        return None
    cell = rng.choice(upper)
    terms = list(doc.boundaries[cell])
    k = rng.randrange(len(terms))
    coeff, word, target = terms[k]
    kind = rng.choice(["coeff", "word", "target"] if doc.gens
                      else ["coeff", "target"])
    if kind == "coeff":
        coeff = rng.choice([c for c in (-2, -1, 1, 2) if c != coeff])
    elif kind == "word":
        g = rng.randint(1, len(doc.gens))
        word = word_mul(word, (rng.choice([g, -g]),))
    else:
        target = rng.choice([c for c, d in doc.cells if d == dims[target]])
    terms[k] = (coeff, word, target)
    boundaries = dict(doc.boundaries)
    boundaries[cell] = tuple(terms)
    return ScxDocument(gens=doc.gens, relators=doc.relators, cells=doc.cells,
                       boundaries=boundaries)


def _abelian_check_outcome(cx):
    try:
        cx.abelian_boundary_check()
    except ChainError as e:
        return str(e)
    return None


def test_abelian_check_matches_layer_products(docs, sutured):
    """Same accept or reject as the oracle on the corpus, the six doubles and
    random presentation complexes, each also under 11 seeded perturbations
    of a 2- or 3-cell term (bases without such a term are checked as they
    are); a rejection names the oracle's first failing degree and one of
    its failing blocks there."""
    rng = random.Random(15)
    bases = [docs[name] for name in BUNDLED]
    bases += [double(sutured[name]).document for name in SUTURED_BUNDLED]
    bases += [random_presentation_doc(rng) for _ in range(60)]
    checked = rejected = at_degree_3 = 0
    for base in bases:
        variants = [base] + [_perturbed(base, rng) for _ in range(11)]
        for doc in variants:
            if doc is None:
                continue
            cx = _bare_complex(doc)
            want = oracle_abelian_failures(cx)
            got = _abelian_check_outcome(cx)
            checked += 1
            if not want:
                assert got is None, (doc.boundaries, got)
                continue
            rejected += 1
            d = min(want)
            at_degree_3 += d == 3
            assert got is not None and any(
                got == f"d^2 != 0 under abelianization at degree {d},"
                       f" block {block}" for block in want[d]), (got, want)
    assert (checked, rejected, at_degree_3) == (669, 303, 22)


# ---------------------------------------------------------------------------
# spanning trees: one breadth-first tree against the two it replaced


def oracle_pi1_generator_words(cx, cells):
    """The generator-word search with its own breadth-first tree."""
    gens = []
    for comp in cx.components(cells):
        verts = [c for c in comp if cx.dim_of(c) == 0]
        edges = [c for c in comp if cx.dim_of(c) == 1]
        if not verts:
            continue
        base = verts[0]
        path = {base: ()}
        frontier = [base]
        tree = set()
        while frontier:
            nxt = []
            for v in frontier:
                for e in sorted(edges):
                    if e in tree:
                        continue
                    head, _, tail, _ = cx.edge_ends(e)
                    g = cx.edge_holonomy(e)
                    if tail == v and head not in path:
                        path[head] = word_mul(path[v], g)
                        tree.add(e)
                        nxt.append(head)
                    elif head == v and tail not in path:
                        path[tail] = word_mul(path[v], word_inv(g))
                        tree.add(e)
                        nxt.append(tail)
            frontier = nxt
        for e in sorted(edges):
            if e in tree:
                continue
            head, _, tail, _ = cx.edge_ends(e)
            if tail not in path or head not in path:
                raise ChainError(f"1-cell {e!r} dangles outside its component")
            w = word_mul(path[tail], cx.edge_holonomy(e), word_inv(path[head]))
            if w:
                gens.append(w)
    return gens


def oracle_zero_holonomy_tree(cx, comp, side):
    """The reachability search over zero-holonomy edges, written out."""
    verts = [c for c in comp if cx.dim_of(c) == 0]
    edges = [c for c in comp if cx.dim_of(c) == 1]
    if not verts:
        raise PreconditionError(f"{side} component {comp} has no vertices")
    reached = {verts[0]}
    frontier = [verts[0]]
    while frontier:
        nxt = []
        for v in frontier:
            for e in edges:
                if cx.edge_holonomy(e):
                    continue
                head, _, tail, _ = cx.edge_ends(e)
                for a, b in ((head, tail), (tail, head)):
                    if a == v and b not in reached:
                        reached.add(b)
                        nxt.append(b)
        frontier = nxt
    if set(verts) - reached:
        raise PreconditionError(
            f"{side} component has no spanning tree of zero-holonomy edges;"
            " rebase the complex before doubling")


def _outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except (ChainError, PreconditionError) as e:
        return type(e).__name__, str(e)


def test_spanning_tree_matches_oracles(docs, sutured):
    """Equal loop words and tree verdicts, or the same exception, on every
    named subcomplex of the corpus, the glued and copied pieces of the six
    doubles, random presentation complexes, and seeded random cell sets of
    all of them (not boundary-closed, so edges may dangle)."""
    rng = random.Random(15)
    cases = []
    for name in BUNDLED:
        cx = docs[name].complex()
        cases += [(cx, cells) for cells in docs[name].subs.values()]
        cases.append((cx, list(cx.all_cells())))
    for name in SUTURED_BUNDLED:
        sc = sutured[name]
        dm = double(sc).complex()
        shared = [c for s in ("R-", "R+") for c in sc.sub_cells(s)]
        cases += [(dm, sc.sub_cells("R-")), (dm, sc.sub_cells("R+"))]
        cases += [(dm, shared + [c for c in dm.all_cells() if c.endswith(tag)])
                  for tag in ("!1", "!2")]
        cases.append((dm, list(dm.all_cells())))
    for _ in range(40):
        cx = random_presentation_doc(rng).complex()
        cases.append((cx, list(cx.all_cells())))
    for cx, _ in list(cases):
        cells = list(cx.all_cells())
        for _ in range(3):
            cases.append((cx, [c for c in cells if rng.random() < 0.6]))
    raised = {"words": 0, "tree": 0}
    for cx, cells in cases:
        got = _outcome(cx.pi1_generator_words, cells)
        assert got == _outcome(oracle_pi1_generator_words, cx, cells), cells
        raised["words"] += got[0] != "ok"
        for comp in cx.components(cells):
            got = _outcome(_check_zero_holonomy_tree, cx, comp, "R-")
            assert got == _outcome(oracle_zero_holonomy_tree, cx, comp, "R-")
            raised["tree"] += got[0] != "ok"
    assert (len(cases), raised) == (372, {"words": 38, "tree": 217})


# ---------------------------------------------------------------------------
# Euler counts: one alternating sum against the per-site sums it replaced


def oracle_chi(cx, cells):
    """Sum of (-1)^dim over the cells, as chi_of summed it."""
    return sum((-1) ** cx.dim_of(c) for c in cells)


def oracle_chi_outside(cx, exclude):
    """The per-dimension count outside `exclude` that euler_check used."""
    return sum((-1) ** d * sum(1 for c in cx.cells[d] if c not in exclude)
               for d in range(MAX_DIM + 1))


def test_euler_counts_match_sums(docs, sutured):
    for name in BUNDLED:
        cx = docs[name].complex()
        assert cx.euler_characteristic() == oracle_chi_outside(cx, set())
        for cells in docs[name].subs.values():
            assert cx.euler_characteristic(cells) == oracle_chi(cx, cells)
            for comp in cx.components(cells):
                assert cx.euler_characteristic(comp) == oracle_chi(cx, comp)
            rel = cx.subcomplex("sub", cells)
            trivial = trivial_representation(cx.group, 2, QQ)
            report = euler_check(cx, rel, trivial)
            bv = betti(specialize(cx, trivial, rel))
            assert report.details == {
                "twisted_chi": sum((-1) ** i * bv[i] for i in range(4)),
                "k_chi": 2 * oracle_chi_outside(cx, rel.cells)}
    for name in SUTURED_BUNDLED:
        sc = sutured[name]
        for side in ("R-", "R+"):
            cells = sc.sub_cells(side)
            assert sc.chi_of(side) == oracle_chi(sc.cx, cells)
            assert sc.component_complexities(side) == [
                oracle_chi(sc.cx, comp) for comp in sc.cx.components(cells)]


# ---------------------------------------------------------------------------
# inverse: one solve against the rref of [A | I]


def oracle_inverse(mat):
    """The right half of rref([A | I]), refused unless A's pivots lead."""
    n = mat.n
    R, pivots = rref(mat.hstack(Matrix.identity(mat.dom, n)))
    if pivots[:n] != list(range(n)):
        raise AlgebraError("singular matrix")
    return R.columns(list(range(n, 2 * n)))


@pytest.mark.parametrize("dom", [QQ, GF(5)], ids=["Q", "F5"])
def test_inverse_matches_rref_oracle(dom):
    rng = random.Random(31)
    singular = 0
    for _ in range(200):
        n = rng.randint(0, 4)
        rows = random_low_rank(rng, n, n, rng.choice([n, n, rng.randint(0, n)]),
                               lambda: Fraction(rng.randint(-2, 2)))
        mat = Matrix.from_rows(dom, rows)
        try:
            want = oracle_inverse(mat)
        except AlgebraError as e:
            singular += 1
            with pytest.raises(AlgebraError, match=str(e)):
                inverse(mat)
            continue
        assert inverse(mat) == want, rows
        assert mat * want == Matrix.identity(dom, n)
    assert 30 < singular < 170


# ---------------------------------------------------------------------------
# relator tests: the shared helpers against brute force


def brute_force_relators_hold(relators, images, n):
    """Trace each point through the letters of every relator."""
    for r in relators:
        for x in range(n):
            y = x
            for k in reversed(r):
                p = images[abs(k) - 1]
                y = p[y] if k > 0 else p.index(y)
            if y != x:
                return False
    return True


def test_relator_tests_match_brute_force():
    """check_hom on permutations and on their matrices, make_representation
    and the images enumerate_quotients lists, on every tuple of images in
    S_2 and S_3 of random presentations."""
    rng = random.Random(41)
    held = tested = 0
    for _ in range(12):
        pres = random_presentation_doc(rng).presentation()
        listed = [q.images for q in enumerate_quotients(pres, 3)]
        want = []
        for n in (2, 3):
            perms = list(itertools.permutations(range(n)))
            for images in itertools.product(perms, repeat=pres.ngens):
                ok = brute_force_relators_hold(pres.relators, images, n)
                want += [images] if ok else []
                assert check_hom(pres, images) == ok, (pres, images)
                mats = [permutation_matrix(QQ, p) for p in images]
                assert check_hom(pres, mats) == ok, (pres, images)
                try:
                    make_representation(pres, mats)
                    assert ok, (pres, images)
                except GroupError as e:
                    assert not ok and "do not satisfy" in str(e), images
                held += ok
                tested += 1
        assert listed == want, pres
    assert (tested, held) == (1488, 792)


# ---------------------------------------------------------------------------
# permutation actions: one builder against explicit matrices


def explicit_permutation_matrix(dom, perm):
    """Entry (i, j) is one exactly when perm sends j to i."""
    n = len(perm)
    return Matrix.from_rows(dom, [[int(perm[j] == i) for j in range(n)]
                                  for i in range(n)])


@pytest.mark.parametrize("dom", [QQ, GF(5)], ids=["Q", "F5"])
def test_action_representation_matches_explicit_matrices(docs, dom):
    rng = random.Random(51)
    pres = docs["product_T1"].presentation()
    for _ in range(30):
        n = rng.randint(1, 5)
        perms = [tuple(rng.sample(range(n), n)) for _ in pres.gens]
        rep = _action_representation(pres, n, perms, dom, "test")
        assert (rep.dim, rep.dom, rep.provenance, rep.unitary) == \
            (n, dom, "test", True)
        for p, m, m_inv in zip(perms, rep.mats, rep.inv_mats):
            assert m == explicit_permutation_matrix(dom, p)
            assert m_inv == explicit_permutation_matrix(dom, p).transpose()
    for q in enumerate_quotients(docs["trefoil"].presentation(), 4):
        perm_rep = permutation_representation(q, dom)
        assert [m for m in perm_rep.mats] == [
            explicit_permutation_matrix(dom, p) for p in q.images]
        reg = regular_representation(q, dom)
        index = {g: i for i, g in enumerate(q.elements)}
        for p, m in zip(q.images, reg.mats):
            assert m == explicit_permutation_matrix(
                dom, tuple(index[perm_mul(p, g)] for g in q.elements))


# ---------------------------------------------------------------------------
# canonical entries: `==` and truthiness against the entrywise tests the
# domains used to define


def oracle_is_zero(dom, x):
    """The zero test each domain defined before entries were canonical."""
    if isinstance(dom, LaurentRing):
        return not x.coeffs
    return not x if dom is QQ else x % dom.p == 0


def oracle_eq(dom, a, b):
    """The equality each domain defined, coefficient by coefficient."""
    if isinstance(dom, LaurentRing):
        return (a.low == b.low and len(a.coeffs) == len(b.coeffs)
                and all(map(oracle_eq, itertools.repeat(dom.base), a.coeffs,
                            b.coeffs)))
    return a == b if dom is QQ else (a - b) % dom.p == 0


def oracle_matrix_eq(a, b):
    """The deleted `Matrix.__eq__`: equal shapes, entrywise `oracle_eq`."""
    return (a.m, a.n) == (b.m, b.n) and all(
        oracle_eq(a.dom, x, y) for ra, rb in zip(a.rows, b.rows)
        for x, y in zip(ra, rb))


def is_canonical(dom, x):
    """`dom.of(x) == x` with the canonical type; a Laurent entry is also
    trimmed, with canonical coefficients."""
    if isinstance(dom, LaurentRing):
        return (type(x) is LaurentPoly and type(x.coeffs) is tuple
                and (bool(x.coeffs[0]) and bool(x.coeffs[-1]) if x.coeffs
                     else x.low == 0)
                and all(is_canonical(dom.base, c) for c in x.coeffs))
    kind = Fraction if dom is QQ else int
    return type(x) is kind and dom.of(x) == x


def _canonical_entry(rng, dom):
    if rng.random() < 0.4:
        return dom.zero
    if isinstance(dom, LaurentRing):
        return _laurent(rng, dom)
    return dom.of(Fraction(rng.randint(-9, 9), rng.randint(1, 4)))


def _canonical_matrix(rng, dom, m, n):
    return Matrix(dom, [[_canonical_entry(rng, dom) for _ in range(n)]
                        for _ in range(m)], m, n)


def _field_results(rng, dom):
    """Matrices from every field operation on random canonical inputs."""
    m, k, n = (rng.randint(0, 4) for _ in range(3))
    a = _canonical_matrix(rng, dom, m, k)
    out = [a * _canonical_matrix(rng, dom, k, n), rref(a)[0],
           kernel_basis(a), a.transpose(),
           a.hstack(_canonical_matrix(rng, dom, m, n)),
           a.map_entries(dom, dom.neg)]
    x = solve(a, _canonical_matrix(rng, dom, m, n))
    if x is not None:
        out.append(x)
    try:
        out.append(inverse(_canonical_matrix(rng, dom, k, k)))
    except AlgebraError:
        pass
    return out


def _laurent_results(rng, ring):
    """Polynomials from every Laurent operation, as 1 x 1 matrices, and the
    matrices of a product, a transpose, an hstack and a negation."""
    a, b = _canonical_entry(rng, ring), _canonical_entry(rng, ring)
    c = _canonical_entry(rng, ring.base)
    polys = [ring.add(a, b), ring.sub(a, b), ring.mul(a, b), ring.neg(a),
             ring.unit_canonical(a), ring.monomial(c, rng.randint(-2, 2)),
             ring.of(c), ring.poly(rng.randint(-2, 2), [0, c, 1, c, 0])]
    if b:
        polys += ring.divmod_shifted(a, b)
    m, k, n = (rng.randint(0, 3) for _ in range(3))
    mat = _canonical_matrix(rng, ring, m, k)
    polys += diagonalize_laurent(mat)
    polys.append(pid_homology_order(mat, Matrix.zeros(ring, 0, m)))
    return [Matrix(ring, [[p]]) for p in polys] + [
        mat * _canonical_matrix(rng, ring, k, n), mat.transpose(),
        mat.hstack(_canonical_matrix(rng, ring, m, n)),
        mat.map_entries(ring, ring.neg)]


@pytest.mark.parametrize("dom", [QQ, GF(5), GF(P), LaurentRing(QQ)],
                         ids=["Q", "F5", "Fbig", "Q[t]"])
def test_results_are_canonical(dom):
    """Every entry an operation returns is canonical, so truthiness and
    `==` agree with the domain's old zero test and equality, on entries
    and on whole matrices (against a copy, a copy changed in one entry and
    a random matrix of the same shape)."""
    rng = random.Random(41)
    outcomes = set()
    for _ in range(150):
        results = (_laurent_results(rng, dom) if isinstance(dom, LaurentRing)
                   else _field_results(rng, dom))
        for mat in results:
            entries = [x for r in mat.rows for x in r]
            assert all(is_canonical(dom, x) for x in entries), mat.rows
            assert all(bool(x) is not oracle_is_zero(dom, x) for x in entries)
            assert mat.is_zero_matrix() == all(oracle_is_zero(dom, x)
                                               for x in entries)
            others = [Matrix(dom, [r[:] for r in mat.rows], mat.m, mat.n),
                      _canonical_matrix(rng, dom, mat.m, mat.n)]
            if entries:
                i, j = rng.randrange(mat.m), rng.randrange(mat.n)
                rows = [r[:] for r in mat.rows]
                rows[i][j] = dom.add(rows[i][j], dom.one)
                others.append(Matrix(dom, rows, mat.m, mat.n))
            for other in others:
                outcomes.add(mat == other)
                assert (mat == other) == oracle_matrix_eq(mat, other)
                assert (mat != other) != oracle_matrix_eq(mat, other)
            for x, y in zip(entries, entries[1:]):
                assert (x == y) == oracle_eq(dom, x, y)
    assert outcomes == {True, False}
