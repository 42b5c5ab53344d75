"""Equivariant chain complexes of finite CW pairs and their twisted homology.

Cells carry formal boundaries: integer-weighted (word, cell) terms encoding
the chosen lifts to the universal cover.  Specializing by a representation
turns each term (c, w, target) into the block c * rho(w); Betti numbers come
from exact rank computations.  Boundary terms are stored exactly as authored
(canceling pairs are not collapsed) because the incidence structure, not just
the chain value, drives connectivity, component and fundamental-group
bookkeeping.

d^2 = 0 cannot be decided at the group-ring level, so it is verified after
every specialization and once under the abelianization of the group at load
time (monomial arithmetic modulo the relator exponent lattice).
"""

from __future__ import annotations

from .algebra import (QQ, Frozen, Matrix, kernel_basis, rank, rref,
                      snf_integers, solve)
from .groups import (GroupPresentation, Representation, eval_word,
                     make_representation, trivial_representation, word_inv,
                     word_mul, word_exponent_vector)


class ChainError(Exception):
    pass


class SpecializeError(ChainError):
    pass


MAX_DIM = 3


class SubcomplexRef(Frozen):
    _fields = ("name", "cells")


class EquivariantComplex:
    """Finite free chain complex over the group ring of `group`, dims 0..3."""

    def __init__(self, group: GroupPresentation, cells, boundary):
        self.group = group
        self.cells = {d: tuple(cells.get(d, ())) for d in range(MAX_DIM + 1)}
        self.boundary = {name: tuple(terms) for name, terms in boundary.items()}
        self._dim = {}
        for d, names in self.cells.items():
            for name in names:
                if name in self._dim:
                    raise ChainError(f"duplicate cell {name!r}")
                self._dim[name] = d
        self._validate()

    def _validate(self):
        for name, terms in self.boundary.items():
            if name not in self._dim:
                raise ChainError(f"boundary given for unknown cell {name!r}")
            d = self._dim[name]
            if d == 0:
                raise ChainError(f"vertex {name!r} cannot have a boundary")
            for coeff, word, target in terms:
                if target not in self._dim:
                    raise ChainError(f"boundary of {name!r} hits unknown cell"
                                     f" {target!r}")
                if self._dim[target] != d - 1:
                    raise ChainError(f"boundary of {name!r} hits {target!r} of"
                                     f" dimension {self._dim[target]}, expected {d - 1}")
                for k in word:
                    if not 1 <= abs(k) <= self.group.ngens:
                        raise ChainError(f"boundary word of {name!r} uses an"
                                         " undeclared generator")
        for d in range(1, MAX_DIM + 1):
            for name in self.cells[d]:
                if name not in self.boundary:
                    raise ChainError(f"cell {name!r} of dimension {d} has no"
                                     " boundary line")
        for name in self.cells[1]:
            self.edge_ends(name)

    def dim_of(self, name: str) -> int:
        return self._dim[name]

    def all_cells(self):
        for d in range(MAX_DIM + 1):
            yield from self.cells[d]

    def euler_characteristic(self, cells=None) -> int:
        """The Euler count of a collection of cells, of all by default."""
        dims = [self._dim[c] for c in (self._dim if cells is None else cells)]
        return alternating_sum(dims.count(d) for d in range(MAX_DIM + 1))

    def edge_ends(self, name):
        """(head, w_head, tail, w_tail) of a 1-cell; see `edge_ends`."""
        return edge_ends(name, self.boundary[name])

    def edge_holonomy(self, name) -> tuple:
        head, wh, tail, wt = self.edge_ends(name)
        return word_mul(wh, word_inv(wt))

    def subcomplex(self, name, cells) -> SubcomplexRef:
        """Build a SubcomplexRef, enforcing closure under boundary."""
        cellset = frozenset(cells)
        for c in cellset:
            if c not in self._dim:
                raise ChainError(f"subcomplex {name!r} lists unknown cell {c!r}")
            for _, _, target in self.boundary.get(c, ()):
                if target not in cellset:
                    raise ChainError(f"subcomplex {name!r} is not boundary-closed:"
                                     f" {c!r} hits {target!r}")
        return SubcomplexRef(name, cellset)

    def skeleton_connected(self) -> bool:
        return (bool(self.cells[0])
                and len(self.components(self.cells[0] + self.cells[1])) == 1)

    def components(self, cells) -> list:
        """Connected components of a cell set via boundary incidence."""
        cellset = set(cells)
        parent = {c: c for c in cellset}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for c in cellset:
            for _, _, target in self.boundary.get(c, ()):
                if target in cellset:
                    parent[find(c)] = find(target)
        groups = {}
        for c in sorted(cellset):
            groups.setdefault(find(c), []).append(c)
        return [sorted(v) for _, v in sorted(groups.items())]

    def tree_paths(self, base, edges):
        """Breadth-first spanning tree of `edges` from the vertex `base`.

        Vertices are taken in the order reached and, at each, the edges in
        sorted order.  Returns (path, tree): the holonomy word of the tree
        path from base to each reached vertex, and the set of tree edges.
        """
        edges = sorted(edges)
        path = {base: ()}
        tree = set()
        frontier = [base]
        while frontier:
            nxt = []
            for v in frontier:
                for e in edges:
                    head, _, tail, _ = self.edge_ends(e)
                    if tail == v and head not in path:
                        reached, step = head, self.edge_holonomy(e)
                    elif head == v and tail not in path:
                        reached, step = tail, word_inv(self.edge_holonomy(e))
                    else:
                        continue
                    path[reached] = word_mul(path[v], step)
                    tree.add(e)
                    nxt.append(reached)
            frontier = nxt
        return path, tree

    def pi1_generator_words(self, cells) -> list:
        """Loop holonomies generating the image of pi_1 of each component.

        Per component: `tree_paths` from the least vertex; each non-tree
        1-cell contributes path(base->tail) * g(e) * path(head->base).
        """
        gens = []
        for comp in self.components(cells):
            verts = [c for c in comp if self._dim[c] == 0]
            edges = [c for c in comp if self._dim[c] == 1]
            if not verts:
                continue
            path, tree = self.tree_paths(verts[0], edges)
            for e in edges:
                if e in tree:
                    continue
                head, _, tail, _ = self.edge_ends(e)
                if tail not in path or head not in path:
                    raise ChainError(f"1-cell {e!r} dangles outside its component")
                w = word_mul(path[tail], self.edge_holonomy(e), word_inv(path[head]))
                if w:
                    gens.append(w)
        return gens

    # -- abelianized d^2 check ------------------------------------------------

    def abelian_boundary_check(self):
        """Verify d^2 = 0 under the abelianization of the group.

        Each term c1*w1*t of the boundary of a cell of dimension d >= 2 and
        each term c2*w2*s of the boundary of t add c1*c2 at (s, w1*w2), the
        word taken modulo the relator lattice; every sum must vanish.
        """
        ngens = self.group.ngens
        lattice = _hnf([list(word_exponent_vector(r, ngens))
                        for r in self.group.relators])
        for d in range(2, MAX_DIM + 1):
            idx = {c: i for i, c in enumerate(self.cells[d - 2])}
            for j, cell in enumerate(self.cells[d]):
                sums = {}
                for c1, w1, t in self.boundary[cell]:
                    v1 = word_exponent_vector(w1, ngens)
                    for c2, w2, s in self.boundary[t]:
                        v2 = word_exponent_vector(w2, ngens)
                        key = (s, _ab_reduce([a + b for a, b in zip(v1, v2)],
                                             lattice))
                        sums[key] = sums.get(key, 0) + c1 * c2
                for (s, _), total in sums.items():
                    if total:
                        raise ChainError(f"d^2 != 0 under abelianization at"
                                         f" degree {d}, block {(idx[s], j)}")


def edge_ends(name, terms):
    """(head, w_head, tail, w_tail) of the 1-cell `name` with boundary
    `terms`; head is the +1 term."""
    if len(terms) != 2 or {terms[0][0], terms[1][0]} != {1, -1}:
        raise ChainError(f"1-cell {name!r} needs exactly one +1 and one -1"
                         " vertex term")
    plus, minus = terms if terms[0][0] == 1 else terms[::-1]
    return plus[2], plus[1], minus[2], minus[1]


def _hnf(rows):
    """Row Hermite-style echelon over Z (positive pivots), for lattice reduction."""
    rows = [r[:] for r in rows if any(r)]
    out = []
    col = 0
    width = len(rows[0]) if rows else 0
    while rows and col < width:
        cands = [r for r in rows if r[col] != 0]
        if not cands:
            col += 1
            continue
        piv = min(cands, key=lambda r: abs(r[col]))
        rows.remove(piv)
        if piv[col] < 0:
            piv = [-x for x in piv]
        done = []
        for r in rows:
            if r[col] != 0:
                q = r[col] // piv[col]
                r = [a - q * b for a, b in zip(r, piv)]
            done.append(r)
        rows = [r for r in done if any(r)]
        if any(r[col] != 0 for r in rows):
            rows.append(piv)
            continue
        out.append(piv)
        col += 1
    return out


def _ab_reduce(vec, lattice):
    for row in lattice:
        c = next(i for i, x in enumerate(row) if x != 0)
        if vec[c] != 0:
            q = vec[c] // row[c]
            vec = [a - q * b for a, b in zip(vec, row)]
    return tuple(vec)


# ---------------------------------------------------------------------------
# specialization


class TwistedComplex(Frozen):
    _fields = ("dom", "k", "cells", "mats")

    def n_cells(self, d) -> int:
        return len(self.cells.get(d, ()))

    def boundary_matrix(self, d) -> Matrix:
        """d_d : C_d -> C_{d-1}; the zero map outside 1..MAX_DIM, where
        C_{d-1} or C_d has no cells."""
        if d in self.mats:
            return self.mats[d]
        return Matrix.zeros(self.dom, self.k * self.n_cells(d - 1),
                            self.k * self.n_cells(d))


class BettiVector(Frozen):
    """Betti numbers b_0..b_3 under a k-dimensional representation over
    the named field; == and hash compare all three."""

    _fields = _key = ("b", "k", "field_name")

    def __iter__(self):
        return iter(self.b)

    def __getitem__(self, i):
        return self.b[i]

    def __str__(self):
        return "(" + ", ".join(str(x) for x in self.b) + ")"


class _RepEvaluator:
    """Caches the nonzero entries (a, b, value) of each word's matrix."""

    def __init__(self, rep):
        self.rep = rep
        self.cache = {}

    def __call__(self, word) -> list:
        if word not in self.cache:
            block = eval_word(self.rep, word)
            self.cache[word] = [(a, b, v) for a, row in enumerate(block.rows)
                                for b, v in enumerate(row) if v]
        return self.cache[word]


def specialize(cx: EquivariantComplex, rep: Representation,
               rel=None) -> TwistedComplex:
    """Twisted (relative) chain complex of (cx, rel) under rep.

    Rows and columns of cells inside `rel` are deleted; each boundary term
    (c, w, target) contributes the block c * rho(w).  Verifies that
    consecutive boundary matrices compose to zero.
    """
    if rep.pres is not cx.group and rep.pres.gens != cx.group.gens:
        raise SpecializeError("representation group does not match the complex")
    excluded = _cellset(rel)
    ev = _RepEvaluator(rep)
    cells = {d: tuple(c for c in cx.cells[d] if c not in excluded)
             for d in range(MAX_DIM + 1)}
    mats = {d: _block_matrix(ev, cells[d - 1], cells[d], cx.boundary, excluded)
            for d in range(1, MAX_DIM + 1)}
    tc = TwistedComplex(rep.dom, rep.dim, cells, mats)
    for d in range(2, MAX_DIM + 1):
        prod = tc.boundary_matrix(d - 1) * tc.boundary_matrix(d)
        if not prod.is_zero_matrix():
            raise SpecializeError(f"d^2 != 0 under {rep.describe()} at"
                                  f" degree {d}: ill-formed input data")
    return tc


def _block_matrix(ev: _RepEvaluator, row_cells, col_cells, terms,
                  skip=frozenset()) -> Matrix:
    """Each term (c, w, target) of terms[cell] adds the k x k block
    c * rho(w) at (target, cell); targets in `skip` add nothing.

    c is coerced once per term, and not at all when it is 1.  An entry
    whose slot still holds the shared `dom.zero` object is written into it,
    not added: entries are canonical, so dom.add(zero, v) == v in every
    domain.  Identity only picks that path; a slot holding an equal zero
    that is another object (terms that cancelled there) goes through
    dom.add, which gives the same value, so the matrix is the sum of the
    blocks either way.
    """
    dom, k = ev.rep.dom, ev.rep.dim
    zero = dom.zero
    idx = {c: i for i, c in enumerate(row_cells)}
    mat = [[zero] * (k * len(col_cells)) for _ in range(k * len(row_cells))]
    for j, cell in enumerate(col_cells):
        for coeff, word, target in terms.get(cell, ()):
            if target in skip:
                continue
            try:
                i0 = idx[target] * k
            except KeyError:
                raise ChainError(f"{cell!r} maps to {target!r}, which is not"
                                 " a cell of the target degree") from None
            j0 = j * k
            c = None if coeff == 1 else dom.of(coeff)
            for a, b, v in ev(word):
                if c is not None:
                    v = dom.mul(c, v)
                row = mat[i0 + a]
                x = row[j0 + b]
                row[j0 + b] = v if x is zero else dom.add(x, v)
    return Matrix(dom, mat, k * len(row_cells), k * len(col_cells))


def _cellset(rel):
    if rel is None:
        return frozenset()
    if isinstance(rel, SubcomplexRef):
        return rel.cells
    return frozenset(rel)


def alternating_sum(values) -> int:
    """Sum of (-1)^d * values[d]: the Euler count of per-dimension numbers
    of cells or of Betti numbers."""
    return sum(v if d % 2 == 0 else -v for d, v in enumerate(values))


def betti(tc: TwistedComplex) -> BettiVector:
    ranks = {d: rank(tc.boundary_matrix(d)) for d in range(MAX_DIM + 2)}
    bs = tuple(tc.k * tc.n_cells(d) - ranks[d] - ranks[d + 1]
               for d in range(MAX_DIM + 1))
    return BettiVector(bs, tc.k, tc.dom.name)


# ---------------------------------------------------------------------------
# the standard checks


class CheckReport(Frozen):
    _fields = ("name", "ok", "details")

    def __str__(self):
        body = ", ".join(f"{k}={v}" for k, v in self.details.items())
        return f"{self.name}: {'ok' if self.ok else 'FAILED'} ({body})"


def euler_check(cx, rel, rep) -> CheckReport:
    """Alternating Betti sum against k times the cell-count Euler number.

    The report always reads ok: `betti` sets b_d = k n_d - r_d - r_{d+1}
    with r_d the rank of d_d, so the alternating sum telescopes to
    k chi - (r_0 - r_{MAX_DIM+1}), and d_0 and d_{MAX_DIM+1} are empty
    matrices of rank 0.  The report shows the two numbers.
    """
    bv = betti(specialize(cx, rep, rel))
    chi = cx.euler_characteristic(set(cx.all_cells()) - _cellset(rel))
    twisted = alternating_sum(bv)
    return CheckReport("euler", twisted == rep.dim * chi,
                       {"twisted_chi": twisted, "k_chi": rep.dim * chi})


def h0_vanishing_check(cx, rel, rep, manifold3=False) -> CheckReport:
    """b_0 of a pair with nonempty subcomplex vanishes; b_3 too on 3-manifold
    pairs along a proper nontrivial boundary piece."""
    cells = _cellset(rel)
    if not cells:
        raise ChainError("h0 check needs a nonempty subcomplex")
    if not cx.skeleton_connected():
        raise ChainError("h0 check needs a connected 1-skeleton")
    bv = betti(specialize(cx, rep, rel))
    details = {"b0": bv[0]}
    ok = bv[0] == 0
    proper = 0 < len(cells) < sum(len(cx.cells[d]) for d in range(MAX_DIM + 1))
    if manifold3 and proper:
        details["b3"] = bv[3]
        ok = ok and bv[3] == 0
    return CheckReport("h0-vanishing", ok, details)


def duality_check(cx, y1, y2, rep) -> CheckReport:
    """b_{3-i} of (X, Y1) under rep against b_i of (X, Y2) under its dual.

    The caller asserts that (cx, y1, y2) models a compact oriented 3-manifold
    with boundary split along Y1 and Y2; that cannot be verified here.
    """
    from .groups import dagger as _dagger
    b_one = betti(specialize(cx, rep, y1))
    b_two = betti(specialize(cx, _dagger(rep), y2))
    pairs = [(b_one[MAX_DIM - i], b_two[i]) for i in range(MAX_DIM + 1)]
    return CheckReport("duality", all(a == b for a, b in pairs),
                       {"pairs": pairs,
                        "b_pair1": b_one.b, "b_pair2_dagger": b_two.b})


def les_check(cx, rel, rep) -> CheckReport:
    """Dimension checks for the long exact sequence of the pair (X, Y).

    Computes b(Y), b(X), b(X, Y) plus the ranks of the three induced map
    families and verifies exactness at every node, along with the alternating
    sum identity.
    """
    if not isinstance(rel, SubcomplexRef):
        raise ChainError("les_check needs a SubcomplexRef")
    full = specialize(cx, rep, None)
    sub = _restrict(cx, full, rel)
    quo = specialize(cx, rep, rel)
    bY, bX, bXY = betti(sub), betti(full), betti(quo)
    k = rep.dim
    inside = {d: _positions(cx.cells[d], rel.cells, k)
              for d in range(MAX_DIM + 1)}
    outside = {d: _positions(cx.cells[d], set(cx.cells[d]) - rel.cells, k)
               for d in range(MAX_DIM + 1)}
    incl_rank = {}
    j_rank = {}
    conn_rank = {0: 0, MAX_DIM + 1: 0}
    for d in range(MAX_DIM + 1):
        embedded = _embedding_matrix(full.dom, inside[d],
                                     full.k * full.n_cells(d)) * \
            kernel_basis(sub.boundary_matrix(d))
        incl_rank[d] = _rank_mod(embedded, full.boundary_matrix(d + 1))
        projected = kernel_basis(full.boundary_matrix(d)).row_subset(outside[d])
        j_rank[d] = _rank_mod(projected, quo.boundary_matrix(d + 1))
        if d >= 1:
            # a relative cycle lifted by zeros on rel has its boundary in rel;
            # the rows of that boundary inside rel are the connecting map
            connecting = full.boundary_matrix(d).row_subset(inside[d - 1]) \
                .columns(outside[d]) * kernel_basis(quo.boundary_matrix(d))
            conn_rank[d] = _rank_mod(connecting, sub.boundary_matrix(d))
    node_ok = True
    for d in range(MAX_DIM + 1):
        node_ok &= bY[d] == incl_rank[d] + conn_rank[d + 1]
        node_ok &= bX[d] == incl_rank[d] + j_rank[d]
        node_ok &= bXY[d] == j_rank[d] + conn_rank[d]
    alt = alternating_sum(bY[d] - bX[d] + bXY[d] for d in range(MAX_DIM + 1))
    return CheckReport("long-exact-sequence", node_ok and alt == 0,
                       {"b_sub": bY.b, "b_total": bX.b, "b_pair": bXY.b,
                        "alt_sum": alt,
                        "incl_ranks": tuple(incl_rank[d] for d in range(4)),
                        "quot_ranks": tuple(j_rank[d] for d in range(4)),
                        "conn_ranks": tuple(conn_rank[d] for d in range(4))})


def _restrict(cx, full: TwistedComplex, rel: SubcomplexRef) -> TwistedComplex:
    """The subcomplex with induced boundaries, as a standalone complex."""
    k = full.k
    cells = {d: tuple(c for c in cx.cells[d] if c in rel.cells)
             for d in range(MAX_DIM + 1)}
    mats = {}
    for d in range(1, MAX_DIM + 1):
        rows = _positions(cx.cells[d - 1], cells[d - 1], k)
        cols = _positions(cx.cells[d], cells[d], k)
        mats[d] = full.boundary_matrix(d).row_subset(rows).columns(cols)
    return TwistedComplex(full.dom, k, cells, mats)


def _positions(all_cells, keep, k):
    kept = set(keep)
    out = []
    for i, c in enumerate(all_cells):
        if c in kept:
            out.extend(range(i * k, (i + 1) * k))
    return out


def _rank_mod(span: Matrix, modulo: Matrix) -> int:
    """dim of (span + im(modulo)) / im(modulo)."""
    if span.n == 0:
        return 0
    base = rank(modulo)
    return rank(modulo.hstack(span)) - base


# ---------------------------------------------------------------------------
# induced maps on homology


class CellMap(Frozen):
    """Chain-level map between complexes: a word homomorphism plus per-cell
    images with rebasing words."""

    _fields = ("source", "target", "gen_words", "cell_images")


def pullback_representation(group, gen_words, rep: Representation) -> Representation:
    """rep pulled back along the homomorphism that sends generator i of
    `group` to the word gen_words[i] of rep's group."""
    return make_representation(group, [eval_word(rep, w) for w in gen_words],
                               provenance=rep.provenance, unitary=rep.unitary)


def _homology_basis(tc: TwistedComplex, d):
    """(representatives, boundary) for H_d in canonical bases.

    The representatives are the columns of the echelon kernel basis K that
    are independent modulo im B and the kernel columns before them: exactly
    the pivot columns of rref(B | K) that lie in K.
    """
    K = kernel_basis(tc.boundary_matrix(d))
    B = tc.boundary_matrix(d + 1)
    _, pivots = rref(B.hstack(K))
    return K.columns([c - B.n for c in pivots if c >= B.n]), B


def _homology_coords(B: Matrix, reps: Matrix, vectors: Matrix) -> Matrix:
    kmat = B.hstack(reps)
    sol = solve(kmat, vectors)
    if sol is None:
        raise ChainError("vector does not represent a homology class")
    return sol.row_subset(list(range(B.n, B.n + reps.n)))


def induced_maps(cx, sources, rep, degree) -> list:
    """Matrices of the maps induced on twisted homology in the given degree,
    one per source, from one specialization of cx and one homology basis.

    Each source is a SubcomplexRef of cx (literal inclusion) or a CellMap
    into cx.  Bases are the canonical echelon kernel/quotient bases, so the
    resulting matrices are reproducible; they depend on the rebasing words
    frozen in the data, while their ranks do not.
    """
    full = specialize(cx, rep, None)
    pushed = []
    for source in sources:
        if isinstance(source, SubcomplexRef):
            src = _restrict(cx, full, source)
            positions = _positions(cx.cells[degree], source.cells, rep.dim)
            T = _embedding_matrix(full.dom, positions,
                                  full.k * full.n_cells(degree))
        elif isinstance(source, CellMap):
            if source.target is not cx:
                raise ChainError("cell map target mismatch")
            src_rep = pullback_representation(source.source.group,
                                              source.gen_words, rep)
            src = specialize(source.source, src_rep, None)
            ev = _RepEvaluator(rep)
            T_by_deg = {d: _block_matrix(ev, full.cells[d], src.cells[d],
                                         source.cell_images)
                        for d in range(MAX_DIM + 1)}
            for d in range(1, MAX_DIM + 1):
                lhs = full.boundary_matrix(d) * T_by_deg[d]
                rhs = T_by_deg[d - 1] * src.boundary_matrix(d)
                if lhs != rhs:
                    raise ChainError("cell map is not chain-level compatible"
                                     " under this representation")
            T = T_by_deg[degree]
        else:
            raise ChainError("source must be a SubcomplexRef or CellMap")
        pushed.append(T * _homology_basis(src, degree)[0])
    tgt_reps, tgt_B = _homology_basis(full, degree)
    return [_homology_coords(tgt_B, tgt_reps, v) for v in pushed]


def induced_map(cx, source, rep, degree) -> Matrix:
    """`induced_maps` for one source."""
    return induced_maps(cx, (source,), rep, degree)[0]


def _embedding_matrix(dom, positions, total) -> Matrix:
    rows = [[dom.zero] * len(positions) for _ in range(total)]
    for j, pos in enumerate(positions):
        rows[pos][j] = dom.one
    return Matrix(dom, rows, total, len(positions))


# ---------------------------------------------------------------------------
# untwisted integer homology (sanity oracle)


def untwisted_homology(cx, rel=None) -> list:
    """[(free rank, torsion divisors)] for degrees 0..3 over Z.

    Under the trivial representation over Q the boundary matrices are the
    integer ones.  One Smith diagonal per boundary map gives its rank (the
    nonzero entries) and the torsion it creates (the entries other than 0, 1).
    """
    tc = specialize(cx, trivial_representation(cx.group, 1, QQ), rel)
    diags = {d: snf_integers(tc.boundary_matrix(d)) for d in range(MAX_DIM + 2)}
    ranks = {d: sum(1 for x in diag if x) for d, diag in diags.items()}
    return [(tc.n_cells(d) - ranks[d] - ranks[d + 1],
             tuple(x for x in diags[d + 1] if x not in (0, 1)))
            for d in range(MAX_DIM + 1)]
