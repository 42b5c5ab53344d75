"""Sutured-complex logic: validation, tautness certificates, the non-product
obstruction, complexity lower bounds and the double construction.

Irreducibility and the excluded shapes (a solid torus, a ball) cannot be
decided from a chain complex, so they are user-asserted metadata and every
verdict records which assertions it is conditional on.  Certification tests
the trivial representation over Q only: no permutation representation can
certify where it fails (see `certify_taut`).  The non-product search uses
regular representations of quotients, where the subgroup-index argument
lives.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import QQ, Frozen
from .chain import (ChainError, EquivariantComplex, SubcomplexRef, betti,
                    specialize)
from .groups import (CohomologyClass, SizeLimitError, enumerate_quotients,
                     eval_word_perm, perm_group_order, regular_representation,
                     trivial_representation, word_inv, word_mul)
from .scxio import ScxDocument


class SuturedError(Exception):
    pass


class PreconditionError(SuturedError):
    """An operation's stated hypotheses are not met; refuse with explanation."""


VERDICT_STATUSES = ("certified-taut", "certified-not-product", "unknown")


class Verdict(Frozen):
    _fields = ("status", "witness", "log")

    def __init__(self, status: str, witness: dict | None, log: dict):
        if status not in VERDICT_STATUSES:
            raise SuturedError(f"unknown verdict status {status!r}")
        super().__init__(status, witness, log)

    def report(self) -> str:
        lines = [f"verdict: {self.status}"]
        if self.witness:
            for key, value in self.witness.items():
                lines.append(f"witness.{key}: {value}")
        for key, value in self.log.items():
            lines.append(f"search.{key}: {value}")
        return "\n".join(lines)


class SuturedComplex:
    """An equivariant complex with the sutured decomposition metadata; `cx`
    is `doc.complex()` if the caller has built it already."""

    def __init__(self, doc: ScxDocument, cx: EquivariantComplex | None = None):
        self.doc = doc
        self.cx = doc.complex() if cx is None else cx
        self.suture_count = doc.meta_int("sutures", 0) or 0
        self.irreducible = doc.meta_flag("irreducible")
        self.excluded_solid_torus = doc.meta_flag("excluded_s1xd2")
        self.excluded_ball = doc.meta_flag("excluded_d3")
        self.manifold3 = doc.meta_flag("manifold3")
        self.chi_rminus = doc.meta_int("chi_rminus")
        self.chi_rplus = doc.meta_int("chi_rplus")

    def has_sutured_structure(self) -> bool:
        return "R-" in self.doc.subs and "R+" in self.doc.subs

    def sub_cells(self, name: str):
        if name not in self.doc.subs:
            raise SuturedError(f"no subcomplex named {name!r}")
        return self.doc.subs[name]

    def ref(self, name: str) -> SubcomplexRef:
        return self.cx.subcomplex(name, self.sub_cells(name))

    def rminus(self) -> SubcomplexRef:
        return self.ref("R-")

    def rplus(self) -> SubcomplexRef:
        return self.ref("R+")

    def chi_of(self, name: str) -> int:
        return self.cx.euler_characteristic(self.sub_cells(name))

    def component_complexities(self, name: str):
        """Per-component Euler numbers of a subcomplex."""
        return [self.cx.euler_characteristic(comp)
                for comp in self.cx.components(self.sub_cells(name))]

    def chi_minus(self, name: str) -> int:
        return sum(max(-chi, 0) for chi in self.component_complexities(name))

    def is_balanced(self) -> bool:
        return self.chi_of("R-") == self.chi_of("R+")

    def assumptions(self) -> str:
        parts = []
        parts.append("irreducible (user-asserted)" if self.irreducible
                     else "irreducibility NOT asserted")
        if self.excluded_solid_torus:
            parts.append("declared S1xD2 (excluded shape)")
        if self.excluded_ball:
            parts.append("declared D3 (excluded shape)")
        return "; ".join(parts)


class ValidationReport:
    def __init__(self):
        self.entries = []

    def add(self, level: str, message: str):
        self.entries.append((level, message))

    @property
    def ok(self) -> bool:
        return not any(level == "error" for level, _ in self.entries)

    def __str__(self):
        return "\n".join(f"{level}: {msg}" for level, msg in self.entries)

    def require_ok(self):
        if not self.ok:
            raise PreconditionError("validation failed:\n" + str(self))


def validate(sc: SuturedComplex) -> ValidationReport:
    """Structural invariants of the sutured decomposition."""
    rep = ValidationReport()
    doc, cx = sc.doc, sc.cx
    named = [n for n in ("R-", "R+", "gamma") if n in doc.subs]
    for missing in ("R-", "R+"):
        if missing not in doc.subs:
            rep.add("error", f"missing subcomplex {missing}")
    for i, a in enumerate(named):
        for b in named[i + 1:]:
            overlap = set(doc.subs[a]) & set(doc.subs[b])
            if overlap:
                rep.add("error", f"{a} and {b} share cells"
                        f" {sorted(overlap)}")
    for name in doc.subs:
        try:
            cx.subcomplex(name, doc.subs[name])
        except ChainError as e:
            rep.add("error", str(e))
    if sc.suture_count <= 0:
        rep.add("error", "suture count must be a positive integer")
    for name, expect in (("R-", sc.chi_rminus), ("R+", sc.chi_rplus)):
        if name in doc.subs and expect is not None:
            got = sc.chi_of(name)
            if got != expect:
                rep.add("error", f"chi({name}) = {got} but metadata says"
                        f" {expect}")
    if "gamma" in doc.subs:
        chi_gamma = sc.chi_of("gamma")
        if chi_gamma != 0:
            rep.add("error", f"chi(gamma) = {chi_gamma}, expected 0")
    if "R-" in doc.subs and "R+" in doc.subs:
        rep.add("info", "balanced" if sc.is_balanced() else "not balanced")
    if not cx.skeleton_connected():
        rep.add("error", "1-skeleton is not connected")
    for name in ("R-", "R+"):
        if name not in doc.subs:
            continue
        for chi in sc.component_complexities(name):
            if chi == 1:
                rep.add("warning", f"{name} has a disk-like component"
                        " (chi = 1); complexity bounds unavailable")
                break
    return rep


# ---------------------------------------------------------------------------
# tautness certificate


def certify_taut(sc: SuturedComplex) -> Verdict:
    """Test b1(M, R-) = 0 under the trivial representation over Q.

    Preconditions (the criterion's hypotheses): `validate` passes, balanced,
    irreducibility asserted, excluded shapes not declared.  On success the
    witness carries the representation, the vanishing pair vector and
    b(M, R+); otherwise the verdict is "unknown".

    No permutation representation can certify where the trivial one fails:
    since n is invertible in Q, Q^n = Q.(1, ..., 1) + A (A the sum-zero
    vectors) as modules over the group.  The twisted chains split the same
    way, so b1(perm) = b1(trivial) + b1(A) >= b1(trivial) > 0, also for
    intransitive quotients.
    """
    if not sc.has_sutured_structure():
        raise PreconditionError("no R-/R+ sutured structure declared")
    validate(sc).require_ok()
    if not sc.is_balanced():
        raise PreconditionError(
            f"not balanced: chi(R-) = {sc.chi_of('R-')},"
            f" chi(R+) = {sc.chi_of('R+')}")
    if not sc.irreducible:
        raise PreconditionError("irreducibility is not asserted in metadata")
    if sc.excluded_solid_torus:
        raise PreconditionError("declared S1xD2: excluded case, the"
                                " criterion does not apply")
    if sc.excluded_ball:
        raise PreconditionError("declared D3: excluded case, the criterion"
                                " does not apply")
    log = {"degrees": "trivial only", "representations_tested": 1}
    trivial = trivial_representation(sc.cx.group, 1, QQ)
    bv = betti(specialize(sc.cx, trivial, sc.rminus()))
    if bv[1] != 0:
        return Verdict("unknown", None, log)
    bplus = betti(specialize(sc.cx, trivial, sc.rplus()))
    return Verdict("certified-taut",
                   {"representation": "trivial k=1", "k": trivial.dim,
                    "b_pair_rminus": str(bv), "b_pair_rplus": str(bplus),
                    "unitary": trivial.unitary, "assumptions": sc.assumptions()},
                   log)


# ---------------------------------------------------------------------------
# non-product obstruction


def nonproduct_search(sc: SuturedComplex, max_degree: int = 3,
                      regular_cap: int = 64) -> Verdict:
    """Certify that the sutured complex is not a product.

    Two tests per quotient: the index test compares the order of the image of
    pi_1(R-) with the order of the full image (strict inequality makes the
    regular-representation pair homology nonzero by the dimension count
    |G| / |im(pi_1(R-) -> G)| > |G| / |im(pi_1(M) -> G)|), and the direct
    test computes b1 under the regular representation, on every quotient
    whose image has at most regular_cap elements; a trivial image always
    runs it, so caps 0 and 1 act alike.  Disconnected R- short-circuits
    through untwisted homology.
    """
    if "R-" not in sc.doc.subs:
        raise PreconditionError("no R- subcomplex declared")
    rminus = sc.rminus()
    comps = sc.cx.components(sc.sub_cells("R-"))
    log = {"degrees": f"2..{max_degree}", "representations_tested": 0}
    if len(comps) > 1:
        bv = betti(specialize(sc.cx, trivial_representation(sc.cx.group, 1, QQ),
                              rminus))
        if bv[1] >= 1:
            return Verdict("certified-not-product",
                           {"test": "disconnected R-",
                            "components": len(comps),
                            "b_pair_rminus": str(bv)},
                           log)
    gen_words = sc.cx.pi1_generator_words(sc.sub_cells("R-"))

    def evaluate(q):
        images = [eval_word_perm(q.images, w, q.degree) for w in gen_words]
        sub_order = perm_group_order(images)
        index_fired = sub_order < q.image_order
        try:
            reg = regular_representation(q, QQ, cap=regular_cap)
        except SizeLimitError:
            direct = None
        else:
            direct = betti(specialize(sc.cx, reg, rminus))
        if not index_fired and (direct is None or direct[1] == 0):
            return None
        detail = {"quotient": q.describe(),
                  "im_order_rminus": sub_order,
                  "im_order_total": q.image_order}
        if index_fired:
            detail["test"] = "index"
            detail["dim_h0_rminus_regular"] = q.image_order // sub_order
            detail["dim_h0_total_regular"] = 1
        if direct is None:
            detail["note"] = "regular representation over cap, index test only"
        else:
            detail["b_pair_rminus_regular"] = str(direct)
        if not index_fired:
            detail["test"] = "direct"
        return detail

    for q in enumerate_quotients(sc.cx.group, max_degree):
        log["representations_tested"] += 1
        witness = evaluate(q)
        if witness is not None:
            return Verdict("certified-not-product", witness, log)
    return Verdict("unknown", None, log)


# ---------------------------------------------------------------------------
# complexity lower bound


class BoundReport(Frozen):
    _fields = ("bound", "chi_minus_rminus", "chi_minus_rplus", "b1_rminus",
               "b1_rplus", "k", "sharp")

    def __str__(self):
        lines = [f"x(M,gamma) >= {self.bound}",
                 f"chi_minus(R-) = {self.chi_minus_rminus}",
                 f"chi_minus(R+) = {self.chi_minus_rplus}",
                 f"b1(M,R-) = {self.b1_rminus} (k = {self.k})",
                 f"b1(M,R+) = {self.b1_rplus}",
                 f"sharp: {'yes' if self.sharp else 'no'}"]
        return "\n".join(lines)


def complexity_lower_bound(sc: SuturedComplex, rep) -> BoundReport:
    """Lower bound for the complexity of the sutured decomposition."""
    validate(sc).require_ok()
    if not sc.irreducible:
        raise PreconditionError("irreducibility is not asserted in metadata")
    for name in ("R-", "R+"):
        if any(chi == 1 for chi in sc.component_complexities(name)):
            raise PreconditionError(f"{name} has a disk component; the bound"
                                    " requires none")
    chi_m = sc.chi_minus("R-")
    chi_p = sc.chi_minus("R+")
    b1m = betti(specialize(sc.cx, rep, sc.rminus()))[1]
    b1p = betti(specialize(sc.cx, rep, sc.rplus()))[1]
    k = rep.dim
    bound = Fraction(chi_p + chi_m, 2) - Fraction(b1m + b1p, 2 * k)
    if bound < 0:
        bound = Fraction(0)
    sharp = bound == min(chi_m, chi_p)
    return BoundReport(bound, chi_m, chi_p, b1m, b1p, k, sharp)


# ---------------------------------------------------------------------------
# the double


class DoubleResult(Frozen):
    _fields = ("document", "_cx", "phi", "retraction")

    def complex(self) -> EquivariantComplex:
        """The complex of `document`, as built and checked by `double`."""
        return self._cx


def double(sc: SuturedComplex) -> DoubleResult:
    """Glue two copies of the complex along R- and R+.

    The first R+ component is the tree edge (identified without a stable
    letter); every other glued component gets one: phi = 1 on R- stable
    letters, 0 elsewhere, the class dual to R-.  Copy-2 boundary terms that
    land on a shared cell in component C are corrected by left multiplication
    with C's stable letter.

    The double has every cell of M twice except those of the disjoint R-
    and R+, so chi = 2 chi(M) - chi(R-) - chi(R+), which is refused unless
    it is 0.
    """
    validate(sc).require_ok()
    rminus_cells = sc.sub_cells("R-")
    rplus_cells = sc.sub_cells("R+")
    if not rminus_cells or not rplus_cells:
        raise PreconditionError("double needs nonempty R- and R+")
    cx = sc.cx
    chi_m, chi_minus, chi_plus = (cx.euler_characteristic(), sc.chi_of("R-"),
                                  sc.chi_of("R+"))
    if 2 * chi_m != chi_minus + chi_plus:
        raise PreconditionError(
            f"double needs 2 chi(M) = chi(R-) + chi(R+), but chi(M) = {chi_m},"
            f" chi(R-) = {chi_minus}, chi(R+) = {chi_plus}")
    group = cx.group
    comps = ([("R+", comp) for comp in cx.components(rplus_cells)]
             + [("R-", comp) for comp in cx.components(rminus_cells)])

    for side, comp in comps:
        _check_zero_holonomy_tree(cx, comp, side)

    gens = [g + "!1" for g in group.gens] + [g + "!2" for g in group.gens]
    n = group.ngens
    stable_letters = []
    stable = {}     # glued cell of R+ or R- -> its component's stable letter
    minus_seen = 0
    plus_seen = 0
    for side, comp in comps:
        if side == "R+":
            plus_seen += 1
            if plus_seen == 1:
                stable.update(dict.fromkeys(comp, ()))
                continue
            name = "s" if plus_seen == 2 else f"s{plus_seen - 1}"
        else:
            minus_seen += 1
            name = "t" if minus_seen == 1 else f"t{minus_seen}"
        stable_letters.append((name, side))
        stable.update(dict.fromkeys(comp, (2 * n + len(stable_letters),)))
        gens.append(name)

    def theta(word, copy):
        offset = 0 if copy == 1 else n
        return tuple((k + offset) if k > 0 else (k - offset) for k in word)

    relators = [theta(r, 1) for r in group.relators]
    relators += [theta(r, 2) for r in group.relators]
    for _, comp in comps:
        g = stable[comp[0]]
        for w in cx.pi1_generator_words(comp):
            rel = word_mul(theta(w, 1), g, word_inv(theta(w, 2)), word_inv(g))
            if rel:
                relators.append(rel)

    cells = []
    boundaries = {}
    for name, dim in sc.doc.cells:
        if name in stable:
            cells.append((name, dim))
            if dim >= 1:
                boundaries[name] = tuple(
                    (c, theta(w, 1), t) for c, w, t in cx.boundary[name])
    for copy, suffix in ((1, "!1"), (2, "!2")):
        for name, dim in sc.doc.cells:
            if name in stable:
                continue
            new = name + suffix
            cells.append((new, dim))
            if dim == 0:
                continue
            terms = []
            for c, w, t in cx.boundary.get(name, ()):
                if t in stable:
                    if copy == 1:
                        terms.append((c, theta(w, 1), t))
                    else:
                        terms.append((c, word_mul(stable[t], theta(w, 2)), t))
                else:
                    terms.append((c, theta(w, copy), t + suffix))
            boundaries[new] = tuple(terms)

    out = ScxDocument(gens=tuple(gens), relators=tuple(relators),
                      cells=tuple(cells), boundaries=boundaries)
    phi_values = {g: 0 for g in gens}
    for name, side in stable_letters:
        phi_values[name] = 1 if side == "R-" else 0
    phi = CohomologyClass(phi_values)
    out.phis["dual"] = dict(phi_values)
    out.metas["name"] = sc.doc.metas.get("name", "complex") + "_double"
    out.metas["witnesses"] = "double of a sutured complex along R- and R+"
    out.metas["manifold3"] = "0"
    dm = out.complex()
    if not phi.is_cocycle(dm.group):
        raise SuturedError("dual class fails to be a cocycle")
    retraction = {g + "!1": g for g in group.gens}
    retraction.update({g + "!2": g for g in group.gens})
    retraction.update({name: "1" for name, _ in stable_letters})
    return DoubleResult(out, dm, phi, retraction)


def _check_zero_holonomy_tree(cx, comp, side):
    verts = [c for c in comp if cx.dim_of(c) == 0]
    if not verts:
        raise PreconditionError(f"{side} component {comp} has no vertices")
    flat = [c for c in comp if cx.dim_of(c) == 1 and not cx.edge_holonomy(c)]
    path, _ = cx.tree_paths(verts[0], flat)
    if set(verts) - set(path):
        raise PreconditionError(
            f"{side} component has no spanning tree of zero-holonomy edges;"
            " rebase the complex before doubling")
