"""File format: grammar, errors, round trips."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from scx.models import BUILDERS
from scx.scxio import (ParseError, inline_rep, parse_assignments, parse_rep,
                       parse_scx, serialize_scx)

from conftest import random_presentation_doc

MINIMAL = """\
scx 1
gen x
cell p dim 0
cell q dim 0
cell m dim 1
cell x dim 1
cell D dim 2
bnd m = 1*1*q + -1*1*q
bnd x = 1*x*p + -1*1*p
bnd D = 1*1*m + -1*1*x + -1*x*x
sub R- = q m
meta sutures 2
"""


class TestGrammar:
    def test_minimal_terms(self):
        doc = parse_scx(MINIMAL)
        assert doc.boundaries["D"] == (
            (1, (), "m"), (-1, (), "x"), (-1, (1,), "x"))

    def test_comments_and_blank_lines(self):
        doc = parse_scx("scx 1\n\n# hello\ngen a  # trailing\n")
        assert doc.gens == ("a",)

    def test_word_exponents(self):
        doc = parse_scx("scx 1\ngen a\nrel a^3\n")
        assert doc.relators == ((1, 1, 1),)

    def test_phi(self):
        doc = parse_scx("scx 1\ngen a b\nmeta phi ab a=1 b=-2\n")
        assert doc.phis["ab"] == {"a": 1, "b": -2}

    def test_missing_header(self):
        with pytest.raises(ParseError) as e:
            parse_scx("gen a\n")
        assert e.value.line == 1

    def test_truncated_term(self):
        with pytest.raises(ParseError) as e:
            parse_scx("scx 1\ngen a\ncell v dim 0\ncell e dim 1\n"
                      "bnd e = 1*a\n")
        assert e.value.line == 5

    def test_undeclared_cell(self):
        with pytest.raises(ParseError):
            parse_scx("scx 1\ncell v dim 0\ncell e dim 1\n"
                      "bnd e = 1*1*w + -1*1*v\n")

    def test_dimension_mismatch(self):
        with pytest.raises(ParseError) as e:
            parse_scx("scx 1\ncell v dim 0\ncell w dim 0\ncell F dim 2\n"
                      "bnd F = 1*1*v + -1*1*w\n")
        assert "dimension mismatch" in str(e.value)

    def test_bad_dimension(self):
        with pytest.raises(ParseError):
            parse_scx("scx 1\ncell v dim 4\n")

    def test_unknown_directive(self):
        with pytest.raises(ParseError):
            parse_scx("scx 1\nfrobnicate\n")

    def test_undeclared_generator_in_relator(self):
        with pytest.raises(ParseError):
            parse_scx("scx 1\ngen a\nrel b\n")

    @pytest.mark.parametrize("header", ["scx 7", "scx 0", "scx", "scx 1 1",
                                        "scx x"])
    def test_only_version_1(self, header):
        with pytest.raises(ParseError) as e:
            parse_scx(f"# comment\n{header}\ngen a\n")
        assert f"bad header {header!r}" in str(e.value)
        assert "only format version 1" in str(e.value) and e.value.line == 2


    @pytest.mark.parametrize("line,message", [
        ("cell w dim \u0660", "cell dimension must be an integer"),
        ("cell w dim 0_0", "cell dimension must be an integer"),
        ("bnd e = 1_0*1*v", "bad coefficient '1_0'"),
        ("bnd e = \u0661*1*v", "bad coefficient '\u0661'"),
        ("rel x^1_0", "bad exponent '1_0' in word 'x^1_0'"),
        ("rel x^\u0662", "bad exponent '\u0662'"),
        ("rel x^", "bad exponent '' in word 'x^'"),
        ("rel x^+", "bad exponent '+'"),
        ("rel 1*x**x", "empty factor in word '1*x**x'"),
        ("rel *x", "empty factor in word '*x'"),
        ("rel x*", "empty factor in word 'x*'"),
        ("bnd e = 1*x**x*v", "empty factor in word 'x**x'"),
        ("bnd e = 1**v", "empty factor in word ''"),
        ("bnd e = 1*x^*v", "bad exponent ''")])
    def test_integers_and_words_follow_the_grammar(self, line, message):
        """An integer is an optional sign and ASCII digits; a word is
        nonempty factors joined by '*', an exponent an integer."""
        text = f"scx 1\ngen x\ncell v dim 0\ncell e dim 1\n{line}\n"
        with pytest.raises(ParseError) as e:
            parse_scx(text)
        assert message in str(e.value) and e.value.line == 5

    @pytest.mark.parametrize("value", ["1_0", "\u0661", "-0_1"])
    def test_meta_integer(self, value):
        doc = parse_scx(f"scx 1\nmeta sutures {value}\n")
        with pytest.raises(ParseError, match="meta sutures must be an"
                           " integer") as e:
            doc.meta_int("sutures")
        assert e.value.line == 2

    def test_sub_lists_each_cell_once(self):
        text = MINIMAL.replace("sub R- = q m", "sub R- = q m q")
        with pytest.raises(ParseError) as e:
            parse_scx(text)
        assert "lists cell 'q' twice" in str(e.value)
        assert e.value.line == text.splitlines().index("sub R- = q m q") + 1


# (value, what it reads as); None marks a malformed value
FLAGS = [("0", False), ("1", True), ("false", False), ("true", True),
         ("no", False), ("yes", True), ("False", False), ("NO", False),
         ("Yes", True), ("TRUE", True), ("", None), ("2", None),
         ("maybe", None), ("on", None), ("yes please", None)]


class TestFlags:
    """`meta` flags and the rep-file `unitary` line share one strict rule."""

    @pytest.mark.parametrize("value,flag", FLAGS)
    def test_meta_flag(self, value, flag):
        doc = parse_scx(f"scx 1\nmeta irreducible {value}\n")
        if flag is None:
            with pytest.raises(ParseError, match="meta irreducible"):
                doc.meta_flag("irreducible")
        else:
            assert doc.meta_flag("irreducible") is flag

    def test_absent_meta_flag_is_false(self):
        assert parse_scx("scx 1\n").meta_flag("irreducible") is False

    @pytest.mark.parametrize("value,flag", FLAGS)
    def test_unitary_line(self, value, flag):
        text = f"rep 1\nkind matrix\ndim 1\nunitary {value}\n"
        if flag is None:
            with pytest.raises(ParseError, match="unitary") as e:
                parse_rep(text)
            assert e.value.line == 4
        else:
            assert parse_rep(text).unitary_assertion is flag


class TestAssignments:
    def test_reads_and_converts(self):
        assert parse_assignments(["x=1", " y = -2"], int) == {"x": 1, "y": -2}
        assert parse_assignments([], int) == {}

    @pytest.mark.parametrize("parts,message", [
        (["x=1", "y"], "expected name=value, got 'y'"),
        (["x=1", "x=2"], "'x' assigned twice"),
        (["x=q"], "bad value 'q' for 'x'")])
    def test_malformed(self, parts, message):
        with pytest.raises(ParseError) as e:
            parse_assignments(parts, int, 7)
        assert message in str(e.value) and e.value.line == 7

    @pytest.mark.parametrize("line,message", [
        ("meta phi c x=1 y", "expected name=value"),
        ("meta phi c x=1 x=0", "'x' assigned twice"),
        ("meta phi c x=1.5", "bad value '1.5'"),
        ("meta phi c x=1_0", "bad value '1_0'"),
        ("meta phi c x=\u0661", "bad value '\u0661'")])
    def test_meta_phi_keeps_its_line(self, line, message):
        with pytest.raises(ParseError) as e:
            parse_scx(f"scx 1\ngen x y\n{line}\n")
        assert message in str(e.value) and e.value.line == 3


class TestInlineRep:
    """An inline --rep value is the document of the file lines it spells,
    but for the `gen` line numbers, which only locate errors."""

    @pytest.mark.parametrize("spec,text", [
        ("trivial:3", "kind trivial\ndim 3\n"),
        ("perm:3:x=(1 2 3),y=(1,2)", "kind perm\ndegree 3\n"
         "gen x = (1 2 3)\ngen y = (1,2)\n"),
        ("perm:2:", "kind perm\ndegree 2\n"),
        ("perm:2", "kind perm\ndegree 2\n")])
    def test_same_document(self, spec, text):
        inline, spelled = inline_rep(spec), parse_rep("rep 1\n" + text)
        assert inline.gen_lines == {}
        assert spelled.gen_lines == {name: 4 + i for i, name in
                                     enumerate(spelled.perms)}
        assert vars(inline) | {"gen_lines": {}} == \
            vars(spelled) | {"gen_lines": {}}

    @pytest.mark.parametrize("spec", [
        "trivial:", "trivial:0", "trivial:x", "perm:0:", "perm:x:",
        "perm:3:x", "perm:3:x=(1 2),x=(1 3)", "matrix:2", "trivial:1_0",
        "perm:\u0663:"])
    def test_malformed(self, spec):
        with pytest.raises(ParseError) as e:
            inline_rep(spec)
        assert e.value.line is None


class TestBundledShape:
    def test_product_T1_has_nine_cells(self):
        from scx.cli import load_document
        doc = load_document("bundled:product_T1")
        assert len(doc.cells) == 9

    def test_headers_state_what_they_witness(self):
        from importlib import resources
        for name in sorted(BUILDERS):
            text = (resources.files("scx.data") / f"{name}.scx").read_text()
            first = text.splitlines()[0]
            assert first.startswith(f"# {name}:") and len(first) > 15

    def test_corpus_regenerates(self, tmp_path):
        from importlib import resources

        from scx.models import write_bundled
        write_bundled(tmp_path)
        shipped = {f.name: f.read_bytes()
                   for f in resources.files("scx.data").iterdir()
                   if f.name.endswith(".scx")}
        written = {f.name: f.read_bytes() for f in tmp_path.iterdir()}
        assert written == shipped


class TestRoundTrip:
    @pytest.mark.parametrize("name", sorted(BUILDERS))
    def test_bundled(self, name):
        doc = BUILDERS[name]()
        text = serialize_scx(doc)
        again = parse_scx(text)
        assert again == doc
        assert serialize_scx(again) == text

    def test_meta_lines_locate_without_taking_part_in_equality(self):
        doc = BUILDERS["product_T1"]()
        again = parse_scx(serialize_scx(doc))
        assert again == doc and doc.meta_lines == {}
        assert (again.meta_lines["name"], again.meta_lines["sutures"]) \
            == (21, 23)

    def test_random_documents(self):
        rng = random.Random(21)
        for _ in range(25):
            doc = random_presentation_doc(rng)
            doc.metas["sutures"] = "1"
            assert parse_scx(serialize_scx(doc)) == doc


class TestRepFormat:
    def test_trivial(self):
        doc = parse_rep("rep 1\nkind trivial\ndim 3\n")
        assert doc.kind == "trivial" and doc.dim == 3

    def test_perm(self):
        doc = parse_rep("rep 1\nkind perm\ndegree 3\ngen x = (1 2)\n")
        assert doc.perms["x"] == "(1 2)"

    def test_matrix(self):
        doc = parse_rep("rep 1\nkind matrix\nfield q\ndim 2\n"
                        "gen x = 1 1 ; 0 1\nunitary 0\n")
        assert doc.matrices["x"] == [["1", "1"], ["0", "1"]]
        assert not doc.unitary_assertion

    def test_bad_kind(self):
        with pytest.raises(ParseError):
            parse_rep("rep 1\nkind nonsense\n")

    @pytest.mark.parametrize("line", ["dim x", "dim", "degree 1.5", "dim 0",
                                      "dim 1_0", "dim \u0663"])
    def test_bad_size(self, line):
        with pytest.raises(ParseError):
            parse_rep(f"rep 1\nkind matrix\n{line}\n")

    def test_matrix_shape_error(self):
        with pytest.raises(ParseError):
            parse_rep("rep 1\nkind matrix\ndim 2\ngen x = 1 1 1 ; 0 1 0\n")

    def test_field_is_none_unless_given(self):
        assert parse_rep("rep 1\nkind trivial\n").field_tag is None
        assert parse_rep("rep 1\nkind trivial\nfield f5\n").field_tag == "f5"

    @pytest.mark.parametrize("header", ["rep 7", "rep", "rep 1 1", "rep 01"])
    def test_only_version_1(self, header):
        with pytest.raises(ParseError) as e:
            parse_rep(f"{header}\nkind trivial\n")
        assert f"bad header {header!r}" in str(e.value)
        assert "only format version 1" in str(e.value) and e.value.line == 1

    @pytest.mark.parametrize("body,line", [
        ("rep 1\nkind trivial\n", 2),
        ("kind perm\nkind matrix\ndim 1\n", 3),
        ("kind trivial\nkind trivial\n", 3),
        ("kind matrix\ndim 1\ndim 2\n", 4),
        ("kind perm\ndegree 2\ndegree 3\n", 4),
        ("kind matrix\nfield q\nfield f5\ndim 1\n", 4),
        ("kind matrix\ndim 1\nunitary 0\n# note\nunitary 1\n", 6),
    ])
    def test_repeated_directive(self, body, line):
        with pytest.raises(ParseError) as e:
            parse_rep("rep 1\n" + body)
        assert "given twice" in str(e.value) and e.value.line == line

    @pytest.mark.parametrize("body,directive,line", [
        ("kind trivial\ndegree 2\n", "degree", 3),
        ("kind trivial\ngen x = (1 2)\n", "gen", 3),
        ("kind trivial\nunitary 1\n", "unitary", 3),
        ("kind perm\ndegree 2\ndim 9\n", "dim", 4),
        ("dim 9\nkind perm\ndegree 2\n", "dim", 2),
        ("kind perm\ndegree 2\nunitary 0\n", "unitary", 4),
        ("kind matrix\ndim 1\ndegree 2\ngen x = 1\n", "degree", 4),
    ])
    def test_directive_of_another_kind(self, body, directive, line):
        with pytest.raises(ParseError) as e:
            parse_rep("rep 1\n" + body)
        assert f"{directive!r} does not apply to kind" in str(e.value)
        assert e.value.line == line


# Text built from the formats' own tokens reaches deep into both parsers;
# plain random text mostly exercises the header check.
SCX_TOKENS = ["scx", "1", "gen", "rel", "cell", "dim", "bnd", "sub", "meta",
              "phi", "sutures", "=", "+", "*", "#", "x", "y", "x^-1", "x^",
              "^", "p", "e", "0", "2", "-1", "x=1", "x=y", "1*x*p", "-1*1*p",
              "1**p", "a*b*", "R-"]
REP_TOKENS = ["rep", "1", "kind", "trivial", "perm", "matrix", "dim", "degree",
              "field", "q", "f2", "unitary", "gen", "x", "=", ";", "#",
              "(1 2)", "(1", "0", "2", "-1", "1/2", "abc"]


def _texts(tokens, header):
    line = st.lists(st.sampled_from(tokens) | st.text(max_size=3),
                    max_size=6).map(" ".join)
    body = st.lists(line, max_size=10).map("\n".join)
    return st.text(max_size=40) | body.map(lambda b: header + "\n" + b)


FUZZ = settings(max_examples=200, deadline=None, database=None)


class TestFuzz:
    @FUZZ
    @given(_texts(SCX_TOKENS, "scx 1"))
    def test_parse_scx_total(self, text):
        try:
            parse_scx(text)
        except ParseError:
            pass

    @FUZZ
    @given(_texts(REP_TOKENS, "rep 1"))
    def test_parse_rep_total(self, text):
        try:
            parse_rep(text)
        except ParseError:
            pass

    @FUZZ
    @given(st.integers(0, 2**32), st.integers(1, 5),
           st.lists(st.integers(-3, 3), min_size=3, max_size=3))
    def test_round_trip(self, seed, sutures, weights):
        doc = random_presentation_doc(random.Random(seed))
        doc.metas["sutures"] = str(sutures)
        doc.phis["w"] = dict(zip(doc.gens, weights))
        doc.subs["R-"] = ("v",)
        text = serialize_scx(doc)
        again = parse_scx(text)
        assert again == doc
        assert serialize_scx(again) == text
