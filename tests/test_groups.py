"""Words, presentations, quotient search and representations."""

import pytest

from scx.algebra import GF, QQ, Matrix
from scx.groups import (MAX_WORD_LETTERS, GroupError, GroupPresentation,
                        SizeLimitError,
                        check_hom, dagger, enumerate_quotients, eval_word,
                        eval_word_perm, make_representation, perm_from_cycles,
                        perm_cycles_str, perm_group_order,
                        permutation_quotient, permutation_representation, regular_representation,
                        trivial_representation, word_inv, word_mul)

FREE1 = GroupPresentation(("x",), ())
FREE2 = GroupPresentation(("a", "b"), ())


def trefoil_pres():
    p = GroupPresentation(("x", "y"), ())
    return GroupPresentation(("x", "y"), (p.parse_word("x*y*x*y^-1*x^-1*y^-1"),))


class TestWords:
    def test_parse_and_print(self):
        w = FREE2.parse_word("a*b^-2*a")
        assert w == (1, -2, -2, 1)
        assert FREE2.word_str(w) == "a*b^-2*a"

    def test_free_reduction(self):
        assert FREE2.parse_word("a*a^-1*b") == (2,)
        assert word_mul((1, 2), (-2, -1)) == ()

    def test_identity(self):
        assert FREE2.parse_word("1") == ()
        assert FREE2.word_str(()) == "1"

    def test_inverse(self):
        w = (1, -2, 1)
        assert word_mul(w, word_inv(w)) == ()

    def test_expansion_is_bounded(self):
        """The limit counts the letters the factors spell out, before free
        reduction: x^50000*x^-50001 is refused although it reduces to x^-1."""
        assert MAX_WORD_LETTERS == 10**5
        assert FREE1.parse_word(f"x^{MAX_WORD_LETTERS}") == \
            (1,) * MAX_WORD_LETTERS
        for text in (f"x^{MAX_WORD_LETTERS + 1}", "x^-999999999",
                     "x^50000*x^-50001", "x*" * MAX_WORD_LETTERS + "x"):
            with pytest.raises(GroupError, match="more than 100000 letters"):
                FREE1.parse_word(text)


class TestCheckHom:
    def test_trefoil_s3(self):
        pres = trefoil_pres()
        x = perm_from_cycles("(1 2)", 3)
        y = perm_from_cycles("(2 3)", 3)
        assert check_hom(pres, [x, y])

    def test_trefoil_abelian_image(self):
        pres = trefoil_pres()
        x = perm_from_cycles("(1 2)", 3)
        assert check_hom(pres, [x, x])

    def test_involution_relator_fails_on_3_cycle(self):
        pres = GroupPresentation(("x",), ((1, 1),))
        assert not check_hom(pres, [perm_from_cycles("(1 2 3)", 3)])

    def test_matrix_images(self):
        pres = GroupPresentation(("x",), ((1, 1),))
        swap = Matrix.from_rows(QQ, [[0, 1], [1, 0]])
        assert check_hom(pres, [swap])

    def test_arity(self):
        with pytest.raises(GroupError):
            check_hom(FREE2, [perm_from_cycles("()", 2)])


class TestEnumerateQuotients:
    def test_z_has_swap(self):
        qs = list(enumerate_quotients(FREE1, 2))
        assert any(q.images == ((1, 0),) for q in qs)

    def test_trefoil_contains_s3_epi(self):
        qs = list(enumerate_quotients(trefoil_pres(), 3))
        x = perm_from_cycles("(1 2)", 3)
        y = perm_from_cycles("(2 3)", 3)
        hits = [q for q in qs if q.images == (x, y)]
        assert len(hits) == 1
        assert hits[0].transitive and hits[0].image_order == 6

    def test_trivial_group(self):
        pres = GroupPresentation(("x",), ((1,),))
        for q in enumerate_quotients(pres, 3):
            assert q.images[0] == tuple(range(q.degree))

    def test_deterministic_and_duplicate_free(self):
        first = [(q.degree, q.images) for q in enumerate_quotients(FREE2, 3)]
        second = [(q.degree, q.images) for q in enumerate_quotients(FREE2, 3)]
        assert first == second
        assert len(set(first)) == len(first)
        assert first == sorted(first)

    def test_transitive_filter(self):
        all_qs = list(enumerate_quotients(FREE1, 3))
        trans = list(enumerate_quotients(FREE1, 3, transitive_only=True))
        assert {q.images for q in trans} == \
            {q.images for q in all_qs if q.transitive}

    def test_generator_free_transitive_filter(self):
        # the only map of the trivial group to S_n (n >= 2) is intransitive
        pres = GroupPresentation((), ())
        assert [q.degree for q in enumerate_quotients(pres, 4)] == [2, 3, 4]
        assert list(enumerate_quotients(pres, 4, transitive_only=True)) == []

    def test_elements_in_breadth_first_order(self):
        a, b = perm_from_cycles("(1 2)", 3), perm_from_cycles("(1 2 3)", 3)
        q = permutation_quotient(FREE2, 3, {"a": "(1 2)", "b": "(1 2 3)"})
        assert q.elements[:3] == ((0, 1, 2), a, b)
        assert q.image_order == 6 and q.transitive
        assert "elements" not in repr(q)

    def test_permutation_quotient_matches_enumeration(self):
        pres = trefoil_pres()
        for q in enumerate_quotients(pres, 3):
            cycles = {g: perm_cycles_str(p) for g, p in zip(pres.gens, q.images)}
            assert permutation_quotient(pres, q.degree, cycles) == q

    @pytest.mark.parametrize("degree, cycles", [
        (3, {"z": "(1 2)"}),                  # unknown generator
        (3, {"": "(1 2)"}),                   # no generator named
        (3, {"x": "(1 2)"}),                  # fails the trefoil relator
        (3, {"x": "(1 2)(1 3)"}),             # not a bijection
        (0, {}),
    ])
    def test_permutation_quotient_rejects(self, degree, cycles):
        with pytest.raises(GroupError):
            permutation_quotient(trefoil_pres(), degree, cycles)


class TestRepresentations:
    def test_trivial(self):
        rep = trivial_representation(FREE2, 3)
        assert rep.dim == 3 and rep.unitary
        assert eval_word(rep, (1, -2)) == Matrix.identity(QQ, 3)

    def test_empty_word(self):
        q = next(iter(enumerate_quotients(FREE1, 2)))
        rep = permutation_representation(q)
        assert eval_word(rep, ()) == Matrix.identity(QQ, 2)

    def test_swap_squares_to_identity(self):
        q = [q for q in enumerate_quotients(FREE1, 2)][1]
        rep = permutation_representation(q)
        assert eval_word(rep, (1, 1)) == Matrix.identity(QQ, 2)
        assert eval_word(rep, (-1,)) == eval_word(rep, (1,))

    def test_perm_rep_satisfies_relators(self):
        for q in enumerate_quotients(trefoil_pres(), 3):
            rep = permutation_representation(q)
            assert check_hom(rep.pres, list(rep.mats))
            for m in rep.mats:
                assert all(x in (0, 1) for row in m.rows for x in row)

    def test_kernel_words_act_trivially(self):
        pres = trefoil_pres()
        for q in enumerate_quotients(pres, 3):
            rep = permutation_representation(q)
            for r in pres.relators:
                assert eval_word(rep, r) == Matrix.identity(QQ, q.degree)

    def test_regular_of_trivial_quotient(self):
        pres = GroupPresentation(("x",), ((1,),))
        q = next(iter(enumerate_quotients(pres, 2)))
        rep = regular_representation(q)
        assert rep.dim == 1

    def test_regular_of_z2(self):
        q = [q for q in enumerate_quotients(FREE1, 2)][1]
        rep = regular_representation(q)
        assert rep.dim == 2
        assert rep.mats[0] == Matrix.from_rows(QQ, [[0, 1], [1, 0]])

    def test_regular_cap(self):
        pres = FREE2
        q = [q for q in enumerate_quotients(pres, 4) if q.image_order > 4][0]
        with pytest.raises(SizeLimitError):
            regular_representation(q, cap=4)

    def test_regular_cap_counts_only_nontrivial_images(self):
        trivial, swap = list(enumerate_quotients(FREE1, 2))
        assert regular_representation(trivial, cap=0).dim == 1
        assert regular_representation(swap, cap=2).dim == 2
        with pytest.raises(SizeLimitError):
            regular_representation(swap, cap=1)

    def test_regular_cap_above_default(self):
        # S3 wr C2 in S6 has 72 elements, past the default cap of 64
        pres = GroupPresentation(("a", "b", "c"), ())
        q = permutation_quotient(pres, 6, {"a": "(1 2 3)", "b": "(1 2)",
                                           "c": "(1 4)(2 5)(3 6)"})
        assert q.image_order == 72
        with pytest.raises(SizeLimitError):
            regular_representation(q)
        assert regular_representation(q, cap=100).dim == 72

    def test_regular_runs_no_group_search(self, monkeypatch):
        import scx.groups
        q = permutation_quotient(FREE2, 4, {"a": "(1 2)", "b": "(1 2 3 4)"})

        def no_search(*args):
            raise AssertionError("group search in regular_representation")

        monkeypatch.setattr(scx.groups, "_generated_subgroup", no_search)
        monkeypatch.setattr(scx.groups, "perm_group_order", no_search)
        assert regular_representation(q).dim == 24

    def test_regular_h0_dimension(self):
        # trefoil -> S3 epimorphism: regular rep has dim 6 and the complex's
        # coinvariants have dimension |G| / |im| = 1
        from scx.chain import betti, specialize
        from scx.models import presentation_complex
        doc = presentation_complex(("x", "y"), ["x*y*x*y^-1*x^-1*y^-1"])
        cx = doc.complex()
        q = [q for q in enumerate_quotients(cx.group, 3)
             if q.image_order == 6][0]
        rep = regular_representation(q)
        assert rep.dim == 6
        assert betti(specialize(cx, rep, None))[0] == 1

    def test_fp_field(self):
        q = [q for q in enumerate_quotients(FREE1, 2)][1]
        rep = permutation_representation(q, GF(2))
        assert rep.dom is GF(2)

    def test_degree_one_quotient_is_trivial_rep(self):
        q = permutation_quotient(FREE1, 1, {})
        rep = permutation_representation(q)
        assert rep.dim == 1
        assert eval_word(rep, (1, 1, -1)) == Matrix.identity(QQ, 1)


class TestDagger:
    def test_trivial_fixed(self):
        rep = trivial_representation(FREE1, 2)
        assert dagger(rep).mats == rep.mats

    def test_swap_fixed(self):
        q = [q for q in enumerate_quotients(FREE1, 2)][1]
        rep = permutation_representation(q)
        assert dagger(rep).mats[0] == rep.mats[0]

    def test_unipotent(self):
        rep = make_representation(
            FREE1, [Matrix.from_rows(QQ, [[1, 1], [0, 1]])])
        dag = dagger(rep)
        assert dag.mats[0] == Matrix.from_rows(QQ, [[1, 0], [-1, 1]])

    def test_involution(self):
        rep = make_representation(
            FREE2, [Matrix.from_rows(QQ, [[1, 2], [1, 1]]),
                    Matrix.from_rows(QQ, [[0, 1], [-1, 0]])])
        assert dagger(dagger(rep)).mats == rep.mats


class TestPermUtilities:
    def test_cycles_round_trip(self):
        p = perm_from_cycles("(1 2)(3 4)", 5)
        assert perm_from_cycles(perm_cycles_str(p), 5) == p

    def test_identity_str(self):
        assert perm_cycles_str((0, 1, 2)) == "()"

    @pytest.mark.parametrize("text", ["(1 2)(1 3)", "(1 2", "1 2)", ")(1 2)",
                                      "(1 (2))", "(a b)", "(1 4)", "(1 1)"])
    def test_malformed_cycles_rejected(self, text):
        with pytest.raises(GroupError):
            perm_from_cycles(text, 3)

    def test_group_order(self):
        a = perm_from_cycles("(1 2)", 3)
        b = perm_from_cycles("(2 3)", 3)
        assert perm_group_order([a, b]) == 6

    def test_eval_word_matches_matrices(self):
        q = [q for q in enumerate_quotients(FREE2, 3)][30]
        rep = permutation_representation(q)
        w = (1, 2, -1, 2)
        perm = eval_word_perm(q.images, w, 3)
        from scx.groups import permutation_matrix
        assert eval_word(rep, w) == permutation_matrix(QQ, perm)
