"""Twisted orders, norm bounds and the determinant-form cross-check, verified
against the standalone Fox-calculus oracle."""

import itertools
import random

import pytest

import fox_oracle
from conftest import random_presentation_doc
from scx.algebra import GF, QQ, LaurentRing, Matrix, poly_to_str
from scx.alex import (AlexError, det_form_check, detab_property,
                      thurston_bound, twisted_alexander)
from scx.cli import load_document
from scx.groups import (enumerate_quotients, make_representation,
                        permutation_quotient, permutation_representation,
                        trivial_representation)
from scx.models import fibered_cut, presentation_complex
from scx.sutured import CohomologyClass

R = LaurentRing(QQ)


def _oracle_polys(doc):
    relators = [tuple(r) for r in doc.relators]
    phi = [doc.phis["ab"][g] for g in doc.gens]
    return fox_oracle.alexander_polys(len(doc.gens), relators, phi)


def _random_cocycle_doc(rng):
    """A random presentation complex with a phi in {-2..2}^g that vanishes
    on its relators, nonzero where one exists, stored as the class "ab"."""
    doc = random_presentation_doc(rng)
    pres = doc.presentation()
    cocycles = [dict(zip(doc.gens, w))
                for w in itertools.product(range(-2, 3), repeat=len(doc.gens))]
    cocycles = [w for w in cocycles if CohomologyClass(w).is_cocycle(pres)]
    nonzero = [w for w in cocycles if any(w.values())]
    doc.phis["ab"] = rng.choice(nonzero or cocycles)
    return doc


def _same_up_to_reversal(poly, oracle_dict):
    mine = {e + poly.low: c for e, c in enumerate(poly.coeffs) if c}
    forward = fox_oracle.pcanon(mine)
    return forward == fox_oracle.pcanon(oracle_dict) or \
        fox_oracle.preverse(forward) == fox_oracle.pcanon(oracle_dict)


class TestTwistedAlexander:
    @pytest.mark.parametrize("name,delta1", [
        ("trefoil", "1 - t + t^2"), ("figure8", "1 - 3*t + t^2")])
    def test_knot_orders(self, name, delta1):
        doc = load_document(f"bundled:{name}")
        cx = doc.complex()
        phi = CohomologyClass(doc.phis["ab"])
        rep = trivial_representation(cx.group, 1, QQ)
        d0 = twisted_alexander(cx, phi, rep, 0)
        d1 = twisted_alexander(cx, phi, rep, 1)
        d2 = twisted_alexander(cx, phi, rep, 2)
        assert d0.poly_str() == "-1 + t" and d0.deg == 1
        assert d1.poly_str() == delta1 and d1.deg == 2
        assert d2.poly_str() == "1" and d2.deg == 0

    @pytest.mark.parametrize("name", ["trefoil", "figure8", "random"])
    def test_against_fox_oracle(self, name):
        if name == "random":
            rng = random.Random(2010)
            docs = [_random_cocycle_doc(rng) for _ in range(50)]
        else:
            docs = [load_document(f"bundled:{name}")]
        for doc in docs:
            cx = doc.complex()
            phi = CohomologyClass(doc.phis["ab"])
            rep = trivial_representation(cx.group, 1, QQ)
            oracle = _oracle_polys(doc)
            shared = thurston_bound(cx, phi, rep).orders
            for i in range(3):
                mine = twisted_alexander(cx, phi, rep, i)
                assert _same_up_to_reversal(mine.poly, oracle[i]), \
                    (doc.relators, doc.phis, i)
                assert _same_up_to_reversal(shared[i].poly, oracle[i]), \
                    (doc.relators, doc.phis, i)

    @pytest.mark.parametrize("name,phi", [
        ("trefoil", "ab"), ("meridional_solidtorus", {"x": 1})])
    def test_orders_outside_the_cell_degrees(self, name, phi):
        # no cells below degree 0 or above 3, so H_i = 0 and its order is 1
        doc = load_document(f"bundled:{name}")
        cx = doc.complex()
        phi = CohomologyClass(doc.phis[phi] if isinstance(phi, str) else phi)
        rep = trivial_representation(cx.group, 1, QQ)
        for i in (-2, -1, 4, 5):
            assert twisted_alexander(cx, phi, rep, i).poly_str() == "1", i

    def test_circle(self):
        doc = presentation_complex(("x",), [], phi={"x": 1})
        cx = doc.complex()
        phi = CohomologyClass({"x": 1})
        rep = trivial_representation(cx.group, 1, QQ)
        assert twisted_alexander(cx, phi, rep, 0).poly_str() == "-1 + t"
        assert twisted_alexander(cx, phi, rep, 1).poly_str() == "1"

    def test_zero_class_on_positive_betti(self):
        doc = load_document("bundled:trefoil")
        cx = doc.complex()
        phi = CohomologyClass({"x": 0, "y": 0})
        rep = trivial_representation(cx.group, 1, QQ)
        assert not twisted_alexander(cx, phi, rep, 1).poly

    def test_rejects_non_cocycle(self):
        doc = load_document("bundled:trefoil")
        cx = doc.complex()
        rep = trivial_representation(cx.group, 1, QQ)
        with pytest.raises(AlexError):
            twisted_alexander(cx, CohomologyClass({"x": 1, "y": 0}), rep, 1)

    def test_cell_order_and_conjugation_invariance(self):
        doc = load_document("bundled:trefoil")
        phi = CohomologyClass(doc.phis["ab"])
        cx = doc.complex()
        base = twisted_alexander(
            cx, phi, trivial_representation(cx.group, 1, QQ), 1)
        doc2 = load_document("bundled:trefoil")
        doc2.cells = tuple(sorted(doc2.cells, key=lambda cd: (cd[1], cd[0]),
                                  reverse=True))
        doc2.cells = tuple(sorted(doc2.cells, key=lambda cd: cd[1]))
        cx2 = doc2.complex()
        again = twisted_alexander(
            cx2, phi, trivial_representation(cx2.group, 1, QQ), 1)
        assert base.poly == again.poly
        # conjugated permutation representation of a degree-2 quotient
        q = [q for q in enumerate_quotients(cx.group, 2)][-1]
        rep = permutation_representation(q)
        p = Matrix.from_rows(QQ, [[1, 1], [0, 1]])
        from scx.algebra import inverse
        conj = make_representation(
            cx.group, [p * m * inverse(p) for m in rep.mats])
        a = twisted_alexander(cx, phi, rep, 1)
        b = twisted_alexander(cx, phi, conj, 1)
        assert a.poly == b.poly


class TestThurstonBound:
    def test_trefoil(self):
        doc = load_document("bundled:trefoil")
        cx = doc.complex()
        report = thurston_bound(cx, CohomologyClass(doc.phis["ab"]),
                                trivial_representation(cx.group, 1, QQ))
        assert report.bound == 1

    def test_figure8(self):
        doc = load_document("bundled:figure8")
        cx = doc.complex()
        report = thurston_bound(cx, CohomologyClass(doc.phis["ab"]),
                                trivial_representation(cx.group, 1, QQ))
        assert report.bound == 1

    def test_circle_floors_at_zero(self):
        doc = presentation_complex(("x",), [], phi={"x": 1})
        cx = doc.complex()
        report = thurston_bound(cx, CohomologyClass({"x": 1}),
                                trivial_representation(cx.group, 1, QQ))
        assert report.bound == 0

    def test_no_bound_when_delta1_zero(self):
        doc = load_document("bundled:trefoil")
        cx = doc.complex()
        report = thurston_bound(cx, CohomologyClass({"x": 0, "y": 0}),
                                trivial_representation(cx.group, 1, QQ))
        assert report.bound is None and "Delta_" in report.reason
        assert not report.orders[1].poly

    def test_taut_examples_nonnegative(self):
        for name in ("trefoil", "figure8", "trefoil_fibered"):
            doc = load_document(f"bundled:{name}")
            cx = doc.complex()
            phi_name = "ab" if "ab" in doc.phis else "dual"
            report = thurston_bound(cx, CohomologyClass(doc.phis[phi_name]),
                                    trivial_representation(cx.group, 1, QQ))
            assert report.bound is not None and report.bound >= 0


class TestDetForm:
    def test_fibered_match(self):
        cut = fibered_cut()
        w_cx = cut["w_doc"].complex()
        phi = CohomologyClass(cut["w_doc"].phis["dual"])
        rep = trivial_representation(w_cx.group, 1, QQ)
        report = det_form_check(w_cx, phi, rep, cut, 1)
        assert report.applicable
        assert report.match or report.reversed_match
        assert poly_to_str(report.det_side) == "1 - t + t^2"

    def test_degree_zero_and_two(self):
        cut = fibered_cut()
        w_cx = cut["w_doc"].complex()
        phi = CohomologyClass(cut["w_doc"].phis["dual"])
        rep = trivial_representation(w_cx.group, 1, QQ)
        r0 = det_form_check(w_cx, phi, rep, cut, 0)
        assert r0.applicable and (r0.match or r0.reversed_match)
        r2 = det_form_check(w_cx, phi, rep, cut, 2)
        assert r2.applicable and (r2.match or r2.reversed_match)
        assert poly_to_str(r2.det_side) == "1"

    def test_stable_letter_moved_inapplicable(self):
        # the twisted order is det(1 - t * M (x) rho(t)) = 1 + t^2 + t^4 for
        # the monodromy M; det(left - t*right) leaves rho(t) out
        cut = fibered_cut()
        w_cx = cut["w_doc"].complex()
        phi = CohomologyClass(cut["w_doc"].phis["dual"])
        rep = permutation_representation(
            permutation_quotient(w_cx.group, 2, {"t": "(1 2)"}))
        report = det_form_check(w_cx, phi, rep, cut, 1)
        assert not report.applicable
        assert "stable letter" in report.detail
        order = twisted_alexander(w_cx, phi, rep, 1)
        assert order.poly_str() == "1 + t^2 + t^4"

    def test_monodromy_action(self):
        from scx.chain import induced_map
        cut = fibered_cut()
        rep = trivial_representation(cut["xminus"].group, 1, QQ)
        m_l = induced_map(cut["xminus"], cut["iota_l"], rep, 1)
        m_r = induced_map(cut["xminus"], cut["iota_r"], rep, 1)
        assert m_l == Matrix.identity(QQ, 2)
        tr = m_r.rows[0][0] + m_r.rows[1][1]
        det = m_r.rows[0][0] * m_r.rows[1][1] - m_r.rows[0][1] * m_r.rows[1][0]
        assert (tr, det) == (1, 1)    # characteristic polynomial t^2 - t + 1

    def test_incompatible_cell_map_rejected(self):
        from scx.chain import ChainError, CellMap, induced_map
        cut = fibered_cut()
        broken = CellMap(cut["iota_r"].source, cut["iota_r"].target,
                         ((1,), (2,)),    # identity words
                         cut["iota_r"].cell_images)
        rep = trivial_representation(cut["xminus"].group, 1, QQ)
        q = list(enumerate_quotients(cut["xminus"].group, 2))[1]
        rep2 = permutation_representation(q)
        with pytest.raises(ChainError):
            induced_map(cut["xminus"], broken, rep2, 1)


class TestDetab:
    def test_identity_pair(self):
        one = Matrix.identity(QQ, 1)
        report = detab_property(one, one)
        assert report.degree == 1 and report.equivalence_holds

    def test_singular_a(self):
        a = Matrix.from_rows(QQ, [[1, 0], [0, 0]])
        b = Matrix.identity(QQ, 2)
        report = detab_property(a, b)
        assert report.degree == 1 and not report.det_a_nonzero
        assert report.equivalence_holds

    def test_zero_b(self):
        a = Matrix.identity(QQ, 1)
        b = Matrix.zeros(QQ, 1, 1)
        report = detab_property(a, b)
        assert report.degree == 0 and not report.det_b_nonzero
        assert report.equivalence_holds

    @pytest.mark.parametrize("dom", [QQ, GF(5)])
    def test_random_pairs(self, dom):
        rng = random.Random(17)
        for _ in range(150):
            s = rng.randint(1, 4)
            a = Matrix.from_rows(
                dom, [[rng.randint(-3, 3) for _ in range(s)] for _ in range(s)])
            b = Matrix.from_rows(
                dom, [[rng.randint(-3, 3) for _ in range(s)] for _ in range(s)])
            assert detab_property(a, b).equivalence_holds
