"""Group presentations, words, finite quotient search and representations.

Words use Tietze convention: a word is a tuple of nonzero ints, +k for the
k-th generator (1-based) and -k for its inverse, freely reduced on
construction.  Permutations are tuples p with p[i] the image of i (0-based);
`perm_mul(a, b)` applies b first, matching matrix products under
`permutation_matrix`, so word evaluation is one consistent homomorphism
whether it lands in S_n or in GL(k).
"""

from __future__ import annotations

import itertools
from functools import cached_property

from .algebra import QQ, AlgebraError, Frozen, Matrix, inverse


class GroupError(Exception):
    pass


class SizeLimitError(GroupError):
    pass


# a word may expand to at most this many letters before free reduction
MAX_WORD_LETTERS = 10**5


def parse_int(text: str) -> int:
    """The one integer syntax of every input: an optional sign, then ASCII
    digits; surrounding white space is ignored.  ValueError otherwise, also
    for the '1_0' and non-ASCII digits that int() alone takes.

    >>> parse_int(" -12"), parse_int("+3")
    (-12, 3)
    """
    body = text.strip()
    digits = body[1:] if body[:1] in ("+", "-") else body
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"invalid integer {text!r}")
    return int(body)


# ---------------------------------------------------------------------------
# words


def word_reduce(letters) -> tuple:
    out = []
    for k in letters:
        if k == 0:
            raise GroupError("zero letter in word")
        if out and out[-1] == -k:
            out.pop()
        else:
            out.append(k)
    return tuple(out)


def word_mul(*words) -> tuple:
    return word_reduce(itertools.chain.from_iterable(words))


def word_inv(word) -> tuple:
    return tuple(-k for k in reversed(word))


def word_exponent_vector(word, ngens) -> tuple:
    v = [0] * ngens
    for k in word:
        v[abs(k) - 1] += 1 if k > 0 else -1
    return tuple(v)


class GroupPresentation(Frozen):
    """Finite presentation; relator words reference declared generators only.

    ==, hash and repr go by the generator names and relator words.
    """

    _fields = _key = ("gens", "relators")

    def __init__(self, gens: tuple, relators: tuple):
        if len(set(gens)) != len(gens):
            raise GroupError("duplicate generator names")
        for r in relators:
            for k in r:
                if not 1 <= abs(k) <= len(gens):
                    raise GroupError("relator uses undeclared generator")
        super().__init__(gens, relators)

    @property
    def ngens(self) -> int:
        return len(self.gens)

    def gen_index(self, name: str) -> int:
        try:
            return self.gens.index(name) + 1
        except ValueError:
            raise GroupError(f"unknown generator {name!r}") from None

    def parse_word(self, text: str) -> tuple:
        """Parse 'x*y^-1*x^2': factors joined by '*', each the identity '1',
        a generator, or a generator, '^' and an integer (`parse_int`).
        A factor x^e stands for |e| letters; a word of more than
        MAX_WORD_LETTERS letters is refused at the factor that passes the
        limit, so no more than that many are ever written out.

        >>> GroupPresentation(("x", "y"), ()).parse_word("x*y^-1")
        (1, -2)
        """
        letters = []
        length = 0
        for tok in text.split("*"):
            tok = tok.strip()
            if not tok:
                raise GroupError(f"empty factor in word {text!r}")
            if tok == "1":
                continue
            name, caret, etext = tok.partition("^")
            try:
                e = parse_int(etext) if caret else 1
            except ValueError:
                raise GroupError(f"bad exponent {etext!r} in word"
                                 f" {text!r}") from None
            idx = self.gen_index(name)
            length += abs(e)
            if length > MAX_WORD_LETTERS:
                raise GroupError(f"word expands to more than"
                                 f" {MAX_WORD_LETTERS} letters")
            letters.extend([idx if e > 0 else -idx] * abs(e))
        return word_reduce(letters)

    def word_str(self, word) -> str:
        if not word:
            return "1"
        parts = []
        run_letter, run_count = word[0], 1
        for k in list(word[1:]) + [0]:
            if k == run_letter:
                run_count += 1
                continue
            name = self.gens[abs(run_letter) - 1]
            e = run_count if run_letter > 0 else -run_count
            parts.append(name if e == 1 else f"{name}^{e}")
            run_letter, run_count = k, 1
        return "*".join(parts)


class CohomologyClass(Frozen):
    """Integer weight per generator name; must vanish on all relators."""

    _fields = ("values",)

    def weight(self, pres: GroupPresentation, word) -> int:
        total = 0
        for k in word:
            name = pres.gens[abs(k) - 1]
            total += (1 if k > 0 else -1) * self.values.get(name, 0)
        return total

    def is_cocycle(self, pres: GroupPresentation) -> bool:
        return all(self.weight(pres, r) == 0 for r in pres.relators)


# ---------------------------------------------------------------------------
# permutations


def perm_mul(a: tuple, b: tuple) -> tuple:
    """Composite permutation applying b first, then a."""
    return tuple(a[b[i]] for i in range(len(a)))


def perm_inv(a: tuple) -> tuple:
    out = [0] * len(a)
    for i, x in enumerate(a):
        out[x] = i
    return tuple(out)


def perm_identity(n: int) -> tuple:
    return tuple(range(n))


def perm_cycles_str(a: tuple) -> str:
    """1-based cycle notation with fixed points omitted; identity is '()'."""
    seen = [False] * len(a)
    cycles = []
    for i in range(len(a)):
        if seen[i] or a[i] == i:
            seen[i] = True
            continue
        cyc = [i]
        seen[i] = True
        j = a[i]
        while j != i:
            cyc.append(j)
            seen[j] = True
            j = a[j]
        cycles.append("(" + " ".join(str(x + 1) for x in cyc) + ")")
    return "".join(cycles) if cycles else "()"


def perm_from_cycles(text: str, n: int) -> tuple:
    """Parse cycle notation like '(1 2)(3 4)' or '(1,2)'; 1-based.

    Raises GroupError unless the text is a product of closed, disjoint cycles
    of points in 1..n, so the result is always a bijection.
    """
    img = list(range(n))
    text = text.strip()
    if text in ("()", "", "id"):
        return tuple(img)
    depth = 0
    cur = []
    cycles = []
    for ch in text:
        if ch == "(":
            if depth:
                raise GroupError("nested parenthesis in permutation")
            depth, cur = 1, []
        elif ch == ")":
            if not depth:
                raise GroupError(f"unopened parenthesis in {text!r}")
            depth = 0
            cycles.append(cur)
            cur = []
        elif depth:
            cur.append(ch)
        elif not ch.isspace():
            raise GroupError(f"bad permutation syntax {text!r}")
    if depth:
        raise GroupError(f"unclosed cycle in {text!r}")
    used = set()
    for cyc in cycles:
        try:
            pts = [parse_int(t) - 1
                   for t in "".join(cyc).replace(",", " ").split()]
        except ValueError:
            raise GroupError(f"non-integer point in {text!r}") from None
        if any(not 0 <= p < n for p in pts) or len(set(pts)) != len(pts):
            raise GroupError(f"bad cycle in {text!r} for degree {n}")
        if used & set(pts):
            raise GroupError(f"cycles in {text!r} are not disjoint")
        used.update(pts)
        for i, p in enumerate(pts):
            img[p] = pts[(i + 1) % len(pts)]
    return tuple(img)


def eval_word_perm(images, word, n) -> tuple:
    out = perm_identity(n)
    for k in word:
        p = images[abs(k) - 1]
        out = perm_mul(out, p if k > 0 else perm_inv(p))
    return out


def _generated_subgroup(perms, n) -> list:
    """Elements of the subgroup of S_n generated by perms, in breadth-first
    order from the identity, multiplying on the left by each generator in
    order."""
    elements = [perm_identity(n)]
    seen = set(elements)
    for g in elements:
        for p in perms:
            h = perm_mul(p, g)
            if h not in seen:
                seen.add(h)
                elements.append(h)
    return elements


def perm_group_order(perms) -> int:
    """Order of the subgroup generated by the given permutations."""
    if not perms:
        return 1
    return len(_generated_subgroup(perms, len(perms[0])))


# ---------------------------------------------------------------------------
# quotients


class FiniteQuotient(Frozen):
    """A homomorphism onto a permutation group, relators checked.

    `elements` is the image G in breadth-first order from the identity,
    multiplying on the left by the generator images in order.  The images
    determine it, so it takes no part in repr, == or hash; the order of G,
    transitivity and the regular representation are all read off it.
    """

    _fields = ("pres", "degree", "images", "elements")
    _key = ("pres", "degree", "images")

    @property
    def image_order(self) -> int:
        return len(self.elements)

    @cached_property
    def transitive(self) -> bool:
        """The orbit of point 0, the images of 0 under G, is every point."""
        return len({g[0] for g in self.elements}) == self.degree

    def describe(self) -> str:
        ims = " ".join(f"{g}={perm_cycles_str(p)}"
                       for g, p in zip(self.pres.gens, self.images))
        tag = "transitive" if self.transitive else "intransitive"
        return (f"degree={self.degree} order={self.image_order} {tag}"
                + (f" {ims}" if ims else ""))


def check_hom(pres: GroupPresentation, images) -> bool:
    """True iff every relator maps to the identity.

    Images may be permutations (tuples) or invertible Matrix objects, one per
    generator.
    """
    if len(images) != pres.ngens:
        raise GroupError("one image required per generator")
    if pres.ngens and isinstance(images[0], Matrix):
        return _matrices_satisfy(Representation(
            pres, images[0].m, images[0].dom, tuple(images),
            tuple(inverse(m) for m in images), "", False))
    return _perms_satisfy(pres.relators, images, len(images[0]) if images else 1)


def _perms_satisfy(relators, images, n) -> bool:
    """Every relator maps to the identity of S_n under the images."""
    return all(eval_word_perm(images, r, n) == perm_identity(n)
               for r in relators)


def _matrices_satisfy(rep: Representation) -> bool:
    """Every relator of rep's group maps to the identity matrix."""
    ident = Matrix.identity(rep.dom, rep.dim)
    return all(eval_word(rep, r) == ident for r in rep.pres.relators)


def _quotient(pres: GroupPresentation, degree: int, images) -> FiniteQuotient:
    """The quotient with these (relator-checked) generator images."""
    images = tuple(images)
    return FiniteQuotient(pres, degree, images,
                          tuple(_generated_subgroup(images, degree)))


def permutation_quotient(pres: GroupPresentation, degree: int,
                         cycles: dict) -> FiniteQuotient:
    """The quotient sending each generator to its image in S_degree.

    `cycles` maps generator names to cycle notation; unnamed generators map
    to the identity.  Raises GroupError for an unknown generator name, a
    malformed cycle or images that fail a relator.
    """
    if degree < 1:
        raise GroupError("permutation degree must be >= 1")
    for name in cycles:
        pres.gen_index(name)
    perms = tuple(perm_from_cycles(cycles.get(g, "()"), degree)
                  for g in pres.gens)
    if not check_hom(pres, perms):
        raise GroupError("permutations do not satisfy the relators")
    return _quotient(pres, degree, perms)


def enumerate_quotients(pres: GroupPresentation, max_degree: int,
                        transitive_only: bool = False):
    """All homomorphisms to S_m for 2 <= m <= max_degree, lexicographically.

    Deterministic: degrees ascending, then lexicographic on the tuple of
    permutation tuples.  Backtracking prunes as soon as every generator of
    some relator is assigned and the relator fails: `completed[i]` holds the
    relators whose last generator is i + 1, tested once generator i has its
    image.
    """
    if max_degree < 1:
        raise GroupError("max_degree must be >= 1")
    ngens = pres.ngens
    completed = [[] for _ in range(ngens)]
    for r in pres.relators:
        if r:
            completed[max(abs(k) for k in r) - 1].append(r)
    for n in range(2, max_degree + 1):
        perms = list(itertools.permutations(range(n)))
        assignment = [None] * ngens

        def extend(i):
            if i == ngens:
                q = _quotient(pres, n, assignment)
                if q.transitive or not transitive_only:
                    yield q
                return
            for p in perms:
                assignment[i] = p
                if _perms_satisfy(completed[i], assignment, n):
                    yield from extend(i + 1)
            assignment[i] = None

        yield from extend(0)


# ---------------------------------------------------------------------------
# representations


class Representation(Frozen):
    """Generator matrices over an exact domain, relators verified at build."""

    _fields = ("pres", "dim", "dom", "mats", "inv_mats", "provenance",
               "unitary")

    def gen_matrix(self, idx: int, sign: int) -> Matrix:
        return self.mats[idx - 1] if sign > 0 else self.inv_mats[idx - 1]

    def describe(self) -> str:
        return f"{self.provenance} k={self.dim} over {self.dom.name}"


def make_representation(pres, mats, provenance="user-supplied",
                        unitary=False) -> Representation:
    if len(mats) != pres.ngens:
        raise GroupError("one matrix required per generator")
    dim = mats[0].m if mats else 1
    dom = mats[0].dom if mats else QQ
    for m in mats:
        if m.m != dim or m.n != dim:
            raise GroupError("generator matrices must be square of equal size")
    try:
        invs = tuple(inverse(m) for m in mats)
    except AlgebraError as e:
        raise GroupError(f"generator matrix not invertible: {e}") from e
    rep = Representation(pres, dim, dom, tuple(mats), invs, provenance, unitary)
    if not _matrices_satisfy(rep):
        raise GroupError("matrices do not satisfy the relators")
    return rep


def trivial_representation(pres, k=1, dom=QQ) -> Representation:
    ident = Matrix.identity(dom, k)
    return Representation(pres, k, dom, tuple(ident for _ in pres.gens),
                          tuple(ident for _ in pres.gens), "trivial", True)


def permutation_matrix(dom, perm) -> Matrix:
    n = len(perm)
    rows = [[dom.zero] * n for _ in range(n)]
    for j in range(n):
        rows[perm[j]][j] = dom.one
    return Matrix(dom, rows, n, n)


def _action_representation(pres, k, perms, dom, provenance) -> Representation:
    """Generator i acts on dom^k by the permutation matrix of perms[i].

    Permutation matrices are orthogonal, hence unitary over C.
    """
    mats = tuple(permutation_matrix(dom, p) for p in perms)
    invs = tuple(permutation_matrix(dom, perm_inv(p)) for p in perms)
    return Representation(pres, k, dom, mats, invs, provenance, True)


def permutation_representation(q: FiniteQuotient, dom=QQ) -> Representation:
    """k = degree; generators act by their image permutation matrices."""
    return _action_representation(q.pres, q.degree, q.images, dom,
                                  "permutation")


def regular_representation(q: FiniteQuotient, dom=QQ, cap=64) -> Representation:
    """Left multiplication on the image, in its breadth-first order
    `q.elements`; SizeLimitError if the image is nontrivial and has more
    than cap elements."""
    elements = q.elements
    if len(elements) > max(cap, 1):
        raise SizeLimitError(f"image has {len(elements)} elements, more"
                             f" than {cap}")
    index = {g: i for i, g in enumerate(elements)}
    actions = [tuple(index[perm_mul(p, g)] for g in elements) for p in q.images]
    return _action_representation(q.pres, len(elements), actions, dom,
                                  "regular-of-quotient")


def eval_word(rep: Representation, word) -> Matrix:
    """Product of generator matrices in word order; identity for ().

    >>> pres = GroupPresentation(("x",), ())
    >>> q = next(enumerate_quotients(pres, 2))   # x -> identity of S_2
    >>> eval_word(permutation_representation(q), (1, 1)).m
    2
    """
    acc = None
    for k in word:
        if not 1 <= abs(k) <= rep.pres.ngens:
            raise GroupError("word uses unknown generator index")
        g = rep.gen_matrix(abs(k), 1 if k > 0 else -1)
        acc = g if acc is None else acc * g
    return Matrix.identity(rep.dom, rep.dim) if acc is None else acc


def dagger(rep: Representation) -> Representation:
    """The dual representation g -> (rep(g)^-1)^T."""
    mats = tuple(m.transpose() for m in rep.inv_mats)
    invs = tuple(m.transpose() for m in rep.mats)
    return Representation(rep.pres, rep.dim, rep.dom, mats, invs,
                          rep.provenance, rep.unitary)
