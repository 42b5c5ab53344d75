"""Specialization, Betti numbers and the homological consistency checks."""

import random

import pytest

from scx.algebra import GF, QQ, rank
from scx.chain import (MAX_DIM, ChainError, SpecializeError, betti,
                       duality_check, euler_check, h0_vanishing_check,
                       induced_map, les_check, specialize, untwisted_homology)
from scx.cli import load_document
from scx.groups import (dagger, enumerate_quotients, permutation_representation,
                        regular_representation, trivial_representation)
from scx.sutured import SuturedComplex

from conftest import BUNDLED, random_presentation_doc, random_quotient


@pytest.fixture(scope="module")
def t1():
    return SuturedComplex(load_document("bundled:product_T1"))


@pytest.fixture(scope="module")
def slope2():
    return SuturedComplex(load_document("bundled:slope2_solidtorus"))


@pytest.fixture(scope="module")
def meridional():
    return SuturedComplex(load_document("bundled:meridional_solidtorus"))


def triv(cx, k=1, dom=QQ):
    return trivial_representation(cx.group, k, dom)


class TestSpecialize:
    def test_product_pair_sizes(self, t1):
        tc = specialize(t1.cx, triv(t1.cx), t1.rminus())
        assert tc.n_cells(2) == 2 and tc.n_cells(1) == 3 and tc.n_cells(0) == 1

    def test_relative_to_everything_is_zero(self, t1):
        total = t1.cx.subcomplex("all", list(t1.cx.all_cells()))
        tc = specialize(t1.cx, triv(t1.cx), total)
        assert all(tc.n_cells(d) == 0 for d in range(4))
        assert betti(tc).b == (0, 0, 0, 0)

    def test_slope2_blocks(self, slope2):
        # regular rep of the degree-2 quotient: the relative matrices carry
        # the hand-checked blocks; see the rank assertions below
        q = list(enumerate_quotients(slope2.cx.group, 2))[1]
        rep = regular_representation(q)
        tc = specialize(slope2.cx, rep, slope2.rminus())
        from scx.algebra import rank
        assert rank(tc.boundary_matrix(1)) == 4
        assert rank(tc.boundary_matrix(2)) == 3

    def test_group_mismatch(self, t1, slope2):
        with pytest.raises(SpecializeError):
            specialize(t1.cx, triv(slope2.cx), None)

    def test_bad_data_rejected(self):
        from scx.chain import EquivariantComplex
        from scx.groups import GroupPresentation
        cx = EquivariantComplex(
            GroupPresentation(("x",), ()),
            {0: ["v"], 1: ["e"], 2: ["F"]},
            {"e": ((1, (1,), "v"), (-1, (), "v")),
             "F": ((1, (), "e"),)})
        q = list(enumerate_quotients(cx.group, 2))[1]
        with pytest.raises(SpecializeError):
            specialize(cx, permutation_representation(q), None)


class TestBetti:
    def test_product_pair_vanishes(self, t1):
        assert betti(specialize(t1.cx, triv(t1.cx), t1.rminus())).b == (0, 0, 0, 0)

    def test_meridional_any_rep(self, meridional):
        for q in enumerate_quotients(meridional.cx.group, 3):
            rep = permutation_representation(q)
            bv = betti(specialize(meridional.cx, rep, meridional.rminus()))
            assert bv.b == (0, rep.dim, rep.dim, 0)

    def test_slope2_three_fields(self, slope2):
        cx = slope2.cx
        rm = slope2.rminus()
        assert betti(specialize(cx, triv(cx), rm)).b == (0, 0, 0, 0)
        q = list(enumerate_quotients(cx.group, 2))[1]
        reg = regular_representation(q)
        assert betti(specialize(cx, reg, rm)).b == (0, 1, 1, 0)
        assert betti(specialize(cx, triv(cx, 1, GF(2)), rm)).b == (0, 1, 1, 0)

    def test_slope2_untwisted_torsion(self, slope2):
        hom = untwisted_homology(slope2.cx, slope2.rminus())
        assert hom[1] == (0, (2,))

    def test_cell_order_invariance(self, t1):
        rng = random.Random(2)
        doc = load_document("bundled:product_T1")
        cells = list(doc.cells)
        rng.shuffle(cells)
        doc.cells = tuple(sorted(cells, key=lambda cd: cd[1]))
        sc = SuturedComplex(doc)
        bv = betti(specialize(sc.cx, triv(sc.cx), sc.rminus()))
        assert bv.b == (0, 0, 0, 0)
        bv2 = betti(specialize(sc.cx, triv(sc.cx), None))
        assert bv2.b == betti(specialize(t1.cx, triv(t1.cx), None)).b


class TestEulerCheck:
    def test_product_pair(self, t1):
        rep = euler_check(t1.cx, t1.rminus(), triv(t1.cx))
        assert rep.ok and rep.details["k_chi"] == 0

    def test_meridional_pair(self, meridional):
        rep = euler_check(meridional.cx, meridional.rminus(),
                          triv(meridional.cx, 1))
        assert rep.ok

    def test_random_triples(self):
        rng = random.Random(99)
        for _ in range(30):
            doc = random_presentation_doc(rng)
            cx = doc.complex()
            q = random_quotient(cx.group, rng)
            rep = permutation_representation(q)
            cells = [c for c in cx.all_cells() if rng.random() < 0.4]
            closed = _closure(cx, cells)
            sub = cx.subcomplex("Y", closed) if closed else None
            assert euler_check(cx, sub, rep).ok


def _closure(cx, cells):
    out = set(cells)
    changed = True
    while changed:
        changed = False
        for c in list(out):
            for _, _, t in cx.boundary.get(c, ()):
                if t not in out:
                    out.add(t)
                    changed = True
    return out


class TestH0Vanishing:
    def test_meridional(self, meridional):
        rep = h0_vanishing_check(meridional.cx, meridional.rminus(),
                                 triv(meridional.cx), manifold3=True)
        assert rep.ok and rep.details["b3"] == 0

    def test_product(self, t1):
        assert h0_vanishing_check(t1.cx, t1.rminus(), triv(t1.cx)).ok

    def test_slope2_regular(self, slope2):
        q = list(enumerate_quotients(slope2.cx.group, 2))[1]
        rep = regular_representation(q)
        assert h0_vanishing_check(slope2.cx, slope2.rminus(), rep).ok

    def test_requires_nonempty(self, t1):
        with pytest.raises(ChainError):
            h0_vanishing_check(t1.cx, None, triv(t1.cx))


class TestDuality:
    def test_product_all_zero(self, t1):
        rep = duality_check(t1.cx, t1.rminus(), t1.rplus(), triv(t1.cx))
        assert rep.ok
        assert rep.details["b_pair1"] == (0, 0, 0, 0)

    def test_meridional(self, meridional):
        yplus = meridional.ref("Yplus")
        rep = duality_check(meridional.cx, meridional.rminus(), yplus,
                            triv(meridional.cx))
        assert rep.ok
        assert rep.details["pairs"][2] == (1, 1)

    def test_dagger_involution(self, meridional):
        yplus = meridional.ref("Yplus")
        rep = triv(meridional.cx)
        a = duality_check(meridional.cx, meridional.rminus(), yplus, rep)
        b = duality_check(meridional.cx, meridional.rminus(), yplus,
                          dagger(dagger(rep)))
        assert a.details == b.details


class TestLes:
    def test_sub_equals_total(self, t1):
        total = t1.cx.subcomplex("all", list(t1.cx.all_cells()))
        rep = les_check(t1.cx, total, triv(t1.cx))
        assert rep.ok
        assert rep.details["b_pair"] == (0, 0, 0, 0)

    def test_meridional_trivial(self, meridional):
        rep = les_check(meridional.cx, meridional.rminus(),
                        triv(meridional.cx))
        assert rep.ok
        assert rep.details["b_pair"] == (0, 1, 1, 0)
        assert rep.details["conn_ranks"][2] == 1

    def test_slope2_f2(self, slope2):
        rep = les_check(slope2.cx, slope2.rminus(), triv(slope2.cx, 1, GF(2)))
        assert rep.ok
        assert rep.details["b_pair"][1] == 1

    def test_random(self):
        rng = random.Random(4242)
        for _ in range(15):
            doc = random_presentation_doc(rng)
            cx = doc.complex()
            q = random_quotient(cx.group, rng)
            rep = permutation_representation(q)
            cells = _closure(cx, [c for c in cx.all_cells()
                                  if rng.random() < 0.5])
            if not cells:
                continue
            sub = cx.subcomplex("Y", cells)
            assert les_check(cx, sub, rep).ok


class TestInducedMap:
    def test_identity_inclusion(self, t1):
        total = t1.cx.subcomplex("all", list(t1.cx.all_cells()))
        m = induced_map(t1.cx, total, triv(t1.cx), 1)
        assert m.m == m.n == 2
        assert m == m * m

    def test_product_bottom_is_iso(self, t1):
        from scx.algebra import Matrix
        m = induced_map(t1.cx, t1.rminus(), triv(t1.cx), 1)
        assert m == Matrix.identity(QQ, 2)

    def test_slope2_core_doubles(self, slope2):
        m = induced_map(slope2.cx, slope2.rminus(), triv(slope2.cx), 1)
        assert m.m == 1 and m.n == 1
        assert m.rows[0][0] == 2

    def test_cell_map_into_missing_cell(self, t1):
        from scx.chain import CellMap
        cx = t1.cx
        images = {c: ((1, (), c),) for c in cx.all_cells()}
        images[cx.cells[0][0]] = ((1, (), "nowhere"),)
        cmap = CellMap(cx, cx, tuple((i,) for i in range(1, cx.group.ngens + 1)),
                       images)
        with pytest.raises(ChainError):
            induced_map(cx, cmap, triv(cx), 1)


class TestComponentsAndPi1:
    def test_skeleton_connected(self, t1):
        from scx.chain import EquivariantComplex
        pres = t1.cx.group
        assert t1.cx.skeleton_connected()
        assert not EquivariantComplex(pres, {0: ["v", "w"]}, {}).skeleton_connected()
        assert not EquivariantComplex(pres, {}, {}).skeleton_connected()
    def test_rminus_components(self, meridional):
        comps = meridional.cx.components(meridional.sub_cells("R-"))
        assert len(comps) == 1

    def test_gamma_components(self, meridional):
        comps = meridional.cx.components(meridional.sub_cells("gamma"))
        assert len(comps) == 2

    def test_slope2_generator_word(self, slope2):
        words = slope2.cx.pi1_generator_words(slope2.sub_cells("R-"))
        assert words == [(1, 1)]

    def test_meridional_rminus_trivial_image(self, meridional):
        words = meridional.cx.pi1_generator_words(
            meridional.sub_cells("R-"))
        assert words == []


class TestBoundaryMatrix:
    @pytest.mark.parametrize("name", BUNDLED)
    def test_every_degree_composes(self, docs, name):
        """Outside 1..MAX_DIM the boundary map is the zero map between the
        right (possibly empty) chain groups, so shapes compose in every
        degree, and betti agrees with ranks of the specialized maps alone."""
        doc = docs[name]
        cx = doc.complex()
        rels = [None] + [cx.subcomplex(s, c) for s, c in sorted(doc.subs.items())]
        for k in (1, 2):
            for rel in rels:
                tc = specialize(cx, triv(cx, k), rel)
                for d in range(-3, MAX_DIM + 4):
                    mat = tc.boundary_matrix(d)
                    assert (mat.m, mat.n) == (k * tc.n_cells(d - 1),
                                              k * tc.n_cells(d)), (name, d)
                    assert tc.boundary_matrix(d - 1).n == mat.m
                    if not 1 <= d <= MAX_DIM:
                        assert mat.is_zero_matrix()
                ranks = {d: rank(tc.mats[d]) for d in range(1, MAX_DIM + 1)}
                assert betti(tc).b == tuple(
                    k * tc.n_cells(d) - ranks.get(d, 0) - ranks.get(d + 1, 0)
                    for d in range(MAX_DIM + 1)), (name, k, rel)
