"""Twisted orders over F[t^±1]: Alexander-type polynomials of a complex with
an integer cohomology class, degree bookkeeping, the norm lower bound and the
determinant-form cross-check.

All orders are canonicalized up to units: lowest exponent 0 and monic top
coefficient.  The degree of the zero polynomial is undefined and surfaced as
None, never as arithmetic.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import (Frozen, LaurentPoly, LaurentRing, Matrix,
                      _order_from_diagonals, diagonalize_laurent,
                      pid_homology_order, poly_to_str)
from .chain import induced_maps, pullback_representation, specialize
from .groups import CohomologyClass, Representation, eval_word


class AlexError(Exception):
    pass


class AlexOrder(Frozen):
    _fields = ("i", "poly")

    @property
    def deg(self):
        """Highest minus lowest exponent; None (undefined) for the zero poly."""
        return self.poly.degree_span()

    def poly_str(self) -> str:
        return poly_to_str(self.poly)


def laurent_twist(rep: Representation, phi: CohomologyClass) -> Representation:
    """g -> t^{phi(g)} * rho(g), a representation over F[t^±1]."""
    ring = LaurentRing(rep.dom)
    pres = rep.pres
    mats = []
    invs = []
    for idx, gname in enumerate(pres.gens):
        w = phi.values.get(gname, 0)
        mats.append(rep.mats[idx].map_entries(
            ring, lambda c, w=w: ring.monomial(c, w)))
        invs.append(rep.inv_mats[idx].map_entries(
            ring, lambda c, w=w: ring.monomial(c, -w)))
    return Representation(pres, rep.dim, ring, tuple(mats), tuple(invs),
                          rep.provenance, rep.unitary)


def twisted_orders(cx, phi: CohomologyClass, rep: Representation,
                   degrees) -> tuple:
    """Orders of H_i, for each i in `degrees`, of the complex twisted by
    t^phi * rho, as a tuple of AlexOrder in the order of `degrees`.

    The complex is specialized once and each boundary map d_d is
    diagonalized at most once; H_i is read off the diagonals of d_{i+1}
    and d_i.  `pid_homology_order` would make the same checks: the entries
    lie in F[t^±1] and `boundary_matrix` gives shapes that compose in every
    degree by construction, and d_i o d_{i+1} = 0 was checked by
    `specialize` for 1 <= i < MAX_DIM and is an empty product for every
    other i.
    """
    if not phi.is_cocycle(cx.group):
        raise AlexError("phi does not vanish on the relators")
    twist = laurent_twist(rep, phi)
    tc = specialize(cx, twist, None)
    diagonals = {}
    orders = []
    for i in degrees:
        d_in, d_out = tc.boundary_matrix(i + 1), tc.boundary_matrix(i)
        for d, mat in ((i + 1, d_in), (i, d_out)):
            if d not in diagonals:
                diagonals[d] = diagonalize_laurent(mat)
        order = _order_from_diagonals(twist.dom, d_in.m, diagonals[i + 1],
                                      diagonals[i])
        orders.append(AlexOrder(i, order))
    return tuple(orders)


def twisted_alexander(cx, phi: CohomologyClass, rep: Representation,
                      i: int) -> AlexOrder:
    """Order of H_i of the complex twisted by t^phi * rho."""
    return twisted_orders(cx, phi, rep, (i,))[0]


class ThurstonReport(Frozen):
    _fields = ("orders", "bound", "reason", "k")

    def format(self, deg_only: bool = False) -> str:
        """A `Delta_i` line per order, its degree alone under deg_only
        (`undefined` for the zero order); then the bound."""
        lines = []
        for o in self.orders:
            d = "undefined" if o.deg is None else o.deg
            lines.append(f"deg Delta_{o.i} = {d}" if deg_only
                         else f"Delta_{o.i} = {o.poly_str()}")
        if self.bound is None:
            lines.append(f"no bound ({self.reason})")
        else:
            lines.append(f"norm lower bound: {self.bound}")
        return "\n".join(lines)


def thurston_bound(cx, phi: CohomologyClass, rep: Representation) -> ThurstonReport:
    """(deg D1 - deg D0 - deg D2)/k, floored at 0, as a norm lower bound.

    Requires all three orders nonzero; reports which one vanished otherwise.
    """
    orders = twisted_orders(cx, phi, rep, range(3))
    for o in orders:
        if not o.poly:
            return ThurstonReport(orders, None, f"Delta_{o.i} = 0", rep.dim)
    raw = Fraction(orders[1].deg - orders[0].deg - orders[2].deg, rep.dim)
    return ThurstonReport(orders, max(raw, Fraction(0)), "", rep.dim)


class DetFormReport(Frozen):
    _fields = ("applicable", "match", "reversed_match", "det_side",
               "order_side", "detail")

    def __str__(self):
        if not self.applicable:
            return f"formula inapplicable: {self.detail}"
        det_s = poly_to_str(self.det_side)
        ord_s = poly_to_str(self.order_side)
        verdict = "match" if (self.match or self.reversed_match) else "MISMATCH"
        return (f"det(left - t*right) = {det_s}\n"
                f"twisted order        = {ord_s}\n{verdict}")


def det_form_check(w_cx, phi: CohomologyClass, rep_w: Representation,
                   cut: dict, i: int) -> DetFormReport:
    """Cross-check: det of (left - t*right) on H_i against the twisted order.

    `cut` carries the complex cut open along R- ("xminus"), the two inclusion
    cell maps ("iota_l", "iota_r") of the R- complex, the generator words
    ("x_in_w") embedding the cut piece's group into the glued group, and the
    stable letter ("stable") along which the two sides are glued.

    The formula has two hypotheses, checked in this order.  rho must fix the
    stable letter: under t^phi * rho the gluing map is t * right followed by
    rho(stable) on the coefficients, and the formula leaves rho(stable) out.
    And b_i of the two sides must agree, so that the pencil is square: the
    map induced by iota_l, from H_i(R-) to H_i(X-), is square.  The
    determinant is taken up to a unit, as the order of the cokernel of the
    pencil over the PID F[t^±1].
    """
    if eval_word(rep_w, cut["stable"]) != Matrix.identity(rep_w.dom, rep_w.dim):
        return DetFormReport(False, None, None, None, None,
                             "rho moves the stable letter")
    xminus = cut["xminus"]
    rep_x = pullback_representation(xminus.group, cut["x_in_w"], rep_w)
    m_l, m_r = induced_maps(xminus, (cut["iota_l"], cut["iota_r"]), rep_x, i)
    if m_l.m != m_l.n:
        return DetFormReport(False, None, None, None, None,
                             f"b_{i}(R-) = {m_l.n} differs from"
                             f" b_{i}(X-) = {m_l.m}")
    det = _pencil_det(m_l, m_r.map_entries(m_r.dom, m_r.dom.neg))
    order = twisted_alexander(w_cx, phi, rep_w, i)
    rev = _substitute_inverse(LaurentRing(rep_x.dom), order.poly)
    match = det == order.poly
    rev_match = det == rev
    return DetFormReport(True, match, rev_match, det, order.poly,
                         "" if match or rev_match else "polynomials differ")


def _substitute_inverse(ring: LaurentRing, p: LaurentPoly) -> LaurentPoly:
    if not p:
        return p
    flipped = ring.poly(-p.high, tuple(reversed(p.coeffs)))
    return ring.unit_canonical(flipped)


class DetabReport(Frozen):
    _fields = ("size", "degree", "det_a_nonzero", "det_b_nonzero")

    @property
    def equivalence_holds(self) -> bool:
        lhs = self.degree == self.size
        rhs = self.det_a_nonzero and self.det_b_nonzero
        return lhs == rhs

    def __str__(self):
        return (f"size {self.size}: deg det(A+tB) = {self.degree},"
                f" det A != 0: {self.det_a_nonzero},"
                f" det B != 0: {self.det_b_nonzero},"
                f" equivalence {'holds' if self.equivalence_holds else 'FAILS'}")


def detab_property(a: Matrix, b: Matrix) -> DetabReport:
    """deg det(A + tB) = s iff both A and B are nonsingular.

    det(A + tB) is read up to a unit, which keeps its degree span, as the
    order of the cokernel of the pencil over the PID F[t^±1].
    """
    from .algebra import rank
    if a.m != a.n or b.m != b.n or a.m != b.m:
        raise AlexError("detab_property needs equal square matrices")
    s = a.m
    return DetabReport(s, _pencil_det(a, b).degree_span(), rank(a) == s,
                       rank(b) == s)


def _pencil_det(a: Matrix, b: Matrix) -> LaurentPoly:
    """det(A + tB) of square A, B over a field, up to a unit: the order of
    the cokernel of the pencil over the PID F[t^±1]."""
    ring = LaurentRing(a.dom)
    rows = [[ring.add(ring.monomial(a.rows[i][j], 0),
                      ring.monomial(b.rows[i][j], 1))
             for j in range(a.n)] for i in range(a.m)]
    return pid_homology_order(Matrix(ring, rows, a.m, a.n),
                              Matrix.zeros(ring, 0, a.m))
