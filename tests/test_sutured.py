"""Validation, verdicts, bounds and the double."""

import pytest

import scx.sutured
from scx.algebra import QQ
from scx.chain import betti, specialize, untwisted_homology
from scx.cli import load_document
from scx.groups import (enumerate_quotients, eval_word_perm, perm_group_order,
                        permutation_representation, regular_representation,
                        trivial_representation)
from scx.sutured import (PreconditionError, SuturedComplex, Verdict,
                         certify_taut, complexity_lower_bound, double,
                         nonproduct_search, validate)

from conftest import SUTURED_BUNDLED

MV_B1 = {"product_D2": 1, "product_A1": 2, "product_T1": 3,
         "meridional_solidtorus": 3, "slope2_solidtorus": 2,
         "d3_two_sutures": 2}


class TestValidate:
    def test_bundled_pass(self, sutured):
        for name, sc in sutured.items():
            report = validate(sc)
            assert report.ok, f"{name}: {report}"

    def test_meridional_flags(self, sutured):
        sc = sutured["meridional_solidtorus"]
        assert sc.excluded_solid_torus and sc.is_balanced()

    def test_d3_disks_flagged(self, sutured):
        report = validate(sutured["d3_two_sutures"])
        assert any(level == "warning" and "disk" in msg
                   for level, msg in report.entries)
        assert not sutured["d3_two_sutures"].is_balanced()

    def test_open_subcomplex_reported(self, docs):
        doc = load_document("bundled:slope2_solidtorus")
        doc.subs["R-"] = ("m",)           # drops the vertex: not closed
        report = validate(SuturedComplex(doc))
        assert not report.ok
        assert any("boundary-closed" in msg and "'m'" in msg
                   for level, msg in report.entries if level == "error")

    def test_chi_mismatch_reported(self):
        doc = load_document("bundled:slope2_solidtorus")
        doc.metas["chi_rminus"] = "5"
        report = validate(SuturedComplex(doc))
        assert not report.ok


class TestCertifyTaut:
    def test_product_T1(self, sutured):
        verdict = certify_taut(sutured["product_T1"])
        assert verdict.status == "certified-taut"
        assert verdict.witness["representation"] == "trivial k=1"
        assert verdict.witness["b_pair_rminus"] == "(0, 0, 0, 0)"
        assert verdict.witness["b_pair_rplus"] == "(0, 0, 0, 0)"

    def test_meridional_refused(self, sutured):
        with pytest.raises(PreconditionError):
            certify_taut(sutured["meridional_solidtorus"])

    def test_d3_refused(self, sutured):
        with pytest.raises(PreconditionError):
            certify_taut(sutured["d3_two_sutures"])

    def test_not_irreducible_refused(self):
        doc = load_document("bundled:product_T1")
        doc.metas["irreducible"] = "0"
        with pytest.raises(PreconditionError):
            certify_taut(SuturedComplex(doc))

    def test_invalid_structure_refused(self):
        doc = load_document("bundled:product_T1")
        doc.metas["sutures"] = "0"
        with pytest.raises(PreconditionError, match="validation failed"):
            certify_taut(SuturedComplex(doc))

    def test_slope2_certified(self, sutured):
        verdict = certify_taut(sutured["slope2_solidtorus"])
        assert verdict.status == "certified-taut"
        assert verdict.witness["representation"] == "trivial k=1"

    def test_unknown_on_exhaustion(self):
        doc = load_document("bundled:meridional_solidtorus")
        doc.metas["excluded_s1xd2"] = "0"    # lie about the shape
        verdict = certify_taut(SuturedComplex(doc))
        assert verdict.status == "unknown"
        assert verdict.witness is None

    @pytest.mark.parametrize("name", ["product_T1", "slope2_solidtorus", "lie"])
    @pytest.mark.parametrize("max_degree", [2, 3, 4])
    def test_matches_permutation_search(self, sutured, name, max_degree):
        """The permutation search that followed a failed trivial test never
        changed a status or a witness."""
        sc = lie_input() if name == "lie" else sutured[name]
        verdict = certify_taut(sc)
        assert (verdict.status, verdict.witness) == oracle_certify_taut(
            sc, max_degree)

    def test_enumerates_no_quotient(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise RuntimeError("certify_taut enumerated quotients")
        monkeypatch.setattr(scx.sutured, "enumerate_quotients", refuse)
        verdict = certify_taut(lie_input())
        assert verdict.status == "unknown"
        assert verdict.log == {"degrees": "trivial only",
                               "representations_tested": 1}


def lie_input():
    """The meridional solid torus without its excluded-shape flag: it passes
    every precondition and fails the trivial test."""
    doc = load_document("bundled:meridional_solidtorus")
    doc.metas["excluded_s1xd2"] = "0"
    return SuturedComplex(doc)


def oracle_certify_taut(sc, max_degree):
    """(status, witness) of the earlier certify_taut: the trivial
    representation, then every permutation representation of degree at most
    max_degree.  The preconditions are left out; callers pass inputs that
    meet them."""
    rminus = sc.rminus()
    reps = [(trivial_representation(sc.cx.group, 1, QQ), "trivial k=1")]
    reps += [(permutation_representation(q), q.describe())
             for q in enumerate_quotients(sc.cx.group, max_degree)]
    for rep, label in reps:
        bv = betti(specialize(sc.cx, rep, rminus))
        if bv[1] == 0:
            bplus = betti(specialize(sc.cx, rep, sc.rplus()))
            return "certified-taut", {
                "representation": label, "k": rep.dim,
                "b_pair_rminus": str(bv), "b_pair_rplus": str(bplus),
                "unitary": rep.unitary, "assumptions": sc.assumptions()}
    return "unknown", None


@pytest.mark.parametrize("name", SUTURED_BUNDLED + ["lie"])
def test_permutation_betti_dominates_trivial(sutured, name):
    """certify_taut's soundness argument: Q^n = Q + (sum-zero part) as
    modules over the group, so b_i under a permutation representation is at
    least b_i under the trivial one, for M, (M, R-) and (M, R+) and for
    intransitive quotients too.  Checked on the complex, with no
    preconditions."""
    sc = lie_input() if name == "lie" else sutured[name]
    trivial = trivial_representation(sc.cx.group, 1, QQ)
    for rel in (None, sc.rminus(), sc.rplus()):
        base = betti(specialize(sc.cx, trivial, rel))
        for q in enumerate_quotients(sc.cx.group, 3):
            bv = betti(specialize(sc.cx, permutation_representation(q), rel))
            assert all(p >= t for p, t in zip(bv, base)), (
                name, rel and rel.name, q.describe(), str(bv), str(base))


class TestNonproduct:
    def test_slope2_index_fires_at_degree_2(self, sutured):
        verdict = nonproduct_search(sutured["slope2_solidtorus"], 2)
        assert verdict.status == "certified-not-product"
        assert verdict.witness["test"] == "index"
        assert verdict.witness["im_order_rminus"] == 1
        assert verdict.witness["im_order_total"] == 2
        assert verdict.witness["dim_h0_rminus_regular"] == 2
        assert verdict.witness["b_pair_rminus_regular"] == "(0, 1, 1, 0)"

    def test_products_unknown(self, sutured):
        for name in ("product_T1", "product_A1", "product_D2"):
            verdict = nonproduct_search(sutured[name], 3)
            assert verdict.status == "unknown", name

    def test_meridional_certified(self, sutured):
        verdict = nonproduct_search(sutured["meridional_solidtorus"], 2)
        assert verdict.status == "certified-not-product"

    def test_disconnected_rminus_short_circuit(self):
        doc = load_document("bundled:d3_two_sutures")
        # use the two disks as R- and the annulus as R+
        doc.subs["R-"], doc.subs["R+"] = doc.subs["R+"], doc.subs["R-"]
        doc.metas["chi_rminus"], doc.metas["chi_rplus"] = "2", "0"
        verdict = nonproduct_search(SuturedComplex(doc), 2)
        assert verdict.status == "certified-not-product"
        assert verdict.witness["test"] == "disconnected R-"

    def test_index_implies_direct(self, sutured):
        # whenever the index test fires the regular representation must show
        # nonzero pair homology
        for name, sc in sutured.items():
            try:
                words = sc.cx.pi1_generator_words(sc.sub_cells("R-"))
            except Exception:
                continue
            for q in enumerate_quotients(sc.cx.group, 3):
                images = [eval_word_perm(q.images, w, q.degree)
                          for w in words]
                sub_order = perm_group_order(images) if images else 1
                if sub_order < q.image_order:
                    reg = regular_representation(q)
                    bv = betti(specialize(sc.cx, reg, sc.rminus()))
                    assert bv[1] != 0, (name, q.describe())

    def test_regular_cap_degrades_to_index(self, sutured):
        verdict = nonproduct_search(sutured["slope2_solidtorus"], 2,
                                    regular_cap=1)
        assert verdict.status == "certified-not-product"
        assert "note" in verdict.witness


class TestBounds:
    def test_product_T1_sharp(self, sutured):
        sc = sutured["product_T1"]
        rep = trivial_representation(sc.cx.group, 1, QQ)
        report = complexity_lower_bound(sc, rep)
        assert report.bound == 1
        assert report.chi_minus_rminus == report.chi_minus_rplus == 1
        assert report.sharp

    def test_slope2_clamps(self, sutured):
        sc = sutured["slope2_solidtorus"]
        q = list(enumerate_quotients(sc.cx.group, 2))[1]
        report = complexity_lower_bound(sc, regular_representation(q))
        assert report.bound == 0
        assert report.chi_minus_rminus == 0
        assert report.sharp

    def test_disk_components_refused(self, sutured):
        sc = sutured["d3_two_sutures"]
        rep = trivial_representation(sc.cx.group, 1, QQ)
        with pytest.raises(PreconditionError):
            complexity_lower_bound(sc, rep)


class TestDouble:
    def test_chi_and_cocycle(self, sutured):
        for name, sc in sutured.items():
            result = double(sc)
            dm = result.complex()
            assert dm.euler_characteristic() == 0, name
            assert result.phi.is_cocycle(dm.group), name
            assert any(v == 1 for v in result.phi.values.values()), name

    def test_untwisted_b1_oracle(self, sutured):
        for name, sc in sutured.items():
            dm = double(sc).complex()
            free, torsion = untwisted_homology(dm)[1]
            assert free == MV_B1[name], name

    def test_d2_under_sampled_reps(self, sutured):
        for name in ("product_T1", "slope2_solidtorus", "d3_two_sutures"):
            dm = double(sutured[name]).complex()
            sampled = 0
            for q in enumerate_quotients(dm.group, 2):
                specialize(dm, permutation_representation(q), None)
                sampled += 1
                if sampled >= 10:
                    break
            assert sampled > 0

    def test_d2_under_nonabelian_reps(self, sutured):
        dm = double(sutured["meridional_solidtorus"]).complex()
        found = 0
        for q in enumerate_quotients(dm.group, 3):
            if q.image_order == 6:
                specialize(dm, permutation_representation(q), None)
                found += 1
                if found >= 3:
                    break
        assert found == 3

    def test_stable_letter_structure(self, sutured):
        result = double(sutured["d3_two_sutures"])
        gens = result.document.gens
        assert "t" in gens and "s" in gens      # R- letter and extra R+ disk
        assert result.phi.values["t"] == 1
        assert result.phi.values["s"] == 0

    def test_retraction(self, sutured):
        result = double(sutured["slope2_solidtorus"])
        assert result.retraction["x!1"] == "x"
        assert result.retraction["x!2"] == "x"
        assert result.retraction["t"] == "1"

    def test_verdict_status_enum(self):
        with pytest.raises(Exception):
            Verdict("certified-maybe", None, {})
