"""Command surface: subcommands, exit codes, file handling."""

import random
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from importlib import resources
from pathlib import Path

import pytest

from scx.algebra import GF, QQ, AlgebraError, Matrix
from scx.cli import (EX_DATA, EX_FAIL, EX_OK, EX_UNKNOWN, EX_USAGE,
                     bundled_names, load_document, main)
from scx.groups import FiniteQuotient
from scx.models import BUILDERS
from scx.scxio import ScxDocument

from test_transcript import unbalanced_text


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCheck:
    @pytest.mark.parametrize("name", sorted(BUILDERS))
    def test_bundled_pass(self, capsys, name):
        code, out, err = run(capsys, "check", f"bundled:{name}")
        assert code == EX_OK, out + err

    def test_broken_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.scx"
        bad.write_text("scx 1\ngen x\ncell v dim 0\ncell e dim 1\n")
        code, out, err = run(capsys, "check", str(bad))
        assert code == EX_DATA

    def test_truncated_file(self, capsys, tmp_path):
        bad = tmp_path / "trunc.scx"
        bad.write_text("gen x\n")
        code, out, err = run(capsys, "check", str(bad))
        assert code == EX_DATA and "header" in err

    @pytest.mark.parametrize("header", ["scx 7", "scx"])
    def test_other_format_version(self, capsys, tmp_path, header):
        path = tmp_path / "version.scx"
        path.write_text(f"{header}\ngen x\ncell v dim 0\n")
        code, out, err = run(capsys, "check", str(path))
        assert (code, out) == (EX_DATA, "")
        assert err == (f"error: bad header {header!r}: only format version 1"
                       " ('scx 1') is read (line 1)\n")

    def test_abelian_d_squared_rejected(self, capsys, tmp_path):
        """d^2 D = 2x v - v - x^2 v is nonzero already in the abelianization."""
        bad = tmp_path / "d2.scx"
        bad.write_text("scx 1\ngen x\ncell v dim 0\ncell e dim 1\n"
                       "cell D dim 2\nbnd e = 1*x*v + -1*1*v\n"
                       "bnd D = 1*1*e + -1*x*e\n")
        code, out, err = run(capsys, "check", str(bad))
        assert code == EX_DATA and out == ""
        assert err == ("error: d^2 != 0 under abelianization at degree 2,"
                       " block (0, 0)\n")

    def test_failed_validation_exits_one(self, capsys, tmp_path):
        from scx.cli import load_document
        from scx.scxio import serialize_scx
        doc = load_document("bundled:slope2_solidtorus")
        doc.metas["chi_rminus"] = "7"
        path = tmp_path / "wrong.scx"
        path.write_text(serialize_scx(doc))
        code, out, _ = run(capsys, "check", str(path))
        assert code == EX_FAIL and "metadata" in out


class TestHomology:
    def test_product_trivial(self, capsys):
        code, out, _ = run(capsys, "homology", "bundled:product_T1",
                           "--rel", "R-", "--rep", "trivial:1")
        assert code == EX_OK
        assert "b = (0, 0, 0, 0)" in out

    def test_absolute_homology(self, capsys):
        code, out, _ = run(capsys, "homology", "bundled:trefoil")
        assert code == EX_OK and "pair: M" in out and "b = (1, 1, 0, 0)" in out

    def test_field_f2(self, capsys):
        code, out, _ = run(capsys, "homology", "bundled:slope2_solidtorus",
                           "--rel", "R-", "--rep", "trivial:1",
                           "--field", "f2")
        assert code == EX_OK and "b = (0, 1, 1, 0)" in out

    def test_inline_perm(self, capsys):
        code, out, _ = run(capsys, "homology", "bundled:meridional_solidtorus",
                           "--rel", "R-", "--rep", "perm:2:x=(1 2)")
        assert code == EX_OK and "b = (0, 2, 2, 0)" in out

    def test_rep_file(self, capsys, tmp_path):
        rep = tmp_path / "rep.txt"
        rep.write_text("rep 1\nkind perm\ndegree 3\ngen x = (1 2 3)\n")
        code, out, _ = run(capsys, "homology", "bundled:meridional_solidtorus",
                           "--rel", "R-", "--rep", str(rep))
        assert code == EX_OK and "b = (0, 3, 3, 0)" in out

    def test_matrix_rep_file(self, capsys, tmp_path):
        rep = tmp_path / "rep.txt"
        rep.write_text("rep 1\nkind matrix\nfield q\ndim 2\n"
                       "gen x = 1 1 ; 0 1\nunitary 0\n")
        code, out, _ = run(capsys, "homology", "bundled:slope2_solidtorus",
                           "--rel", "R-", "--rep", str(rep))
        assert code == EX_OK and "b = (0, 0, 0, 0)" in out

    @pytest.mark.parametrize("body,argv,field", [
        ("kind matrix\ndim 1\ngen a = 2\n", ["--field", "f5"],
         "user-supplied k=1 over F5"),
        ("kind perm\nfield f5\ndegree 2\ngen a = (1 2)\n", [],
         "permutation k=2 over F5"),
        ("kind matrix\nfield f3\ndim 1\ngen a = 2\n", [],
         "user-supplied k=1 over F3"),
        ("kind trivial\nfield f3\ndim 2\n", ["--field", "f3"],
         "trivial k=2 over F3"),
        ("kind perm\ndegree 2\ngen a = (1 2)\n", [],
         "permutation k=2 over Q"),
    ], ids=["matrix-flag", "perm-file", "matrix-file", "both-agree", "neither"])
    def test_rep_file_field(self, capsys, tmp_path, body, argv, field):
        """The field is --field if given, else the file's, else Q."""
        rep = tmp_path / "rep.txt"
        rep.write_text("rep 1\n" + body)
        code, out, err = run(capsys, "homology", "bundled:product_A1",
                             "--rel", "R-", "--rep", str(rep), *argv)
        assert code == EX_OK and err == ""
        assert f"representation: {field}\n" in out

    def test_rep_file_other_version(self, capsys, tmp_path):
        rep = tmp_path / "rep.txt"
        rep.write_text("rep 7\nkind trivial\n")
        code, out, err = run(capsys, "homology", "bundled:product_A1",
                             "--rep", str(rep))
        assert (code, out) == (EX_DATA, "")
        assert err == ("error: bad header 'rep 7': only format version 1"
                       " ('rep 1') is read (line 1)\n")

    @pytest.mark.parametrize("command", [
        ["homology"], ["bounds"], ["alex", "--phi", "ab"]])
    def test_rep_file_field_conflict(self, capsys, tmp_path, command):
        rep = tmp_path / "rep.txt"
        rep.write_text("rep 1\nkind matrix\nfield f3\ndim 1\n"
                       "gen x = 2\ngen y = 2\n")
        code, out, err = run(capsys, command[0], "bundled:trefoil",
                             *command[1:], "--rep", str(rep), "--field", "f5")
        assert (code, out) == (EX_USAGE, "")
        assert err == ("usage error: --field F5 differs from the file's field"
                       " F3\n")

    @pytest.mark.parametrize("entry,code,message", [
        ("1/2", EX_OK, "b = (0, 0, 0, 0)"),
        ("1/5", EX_DATA, "denominator divisible by 5"),
        ("5", EX_DATA, "singular")])
    def test_prime_field_fraction_entries(self, capsys, tmp_path, entry, code,
                                          message):
        rep = tmp_path / "rep.txt"
        rep.write_text(f"rep 1\nkind matrix\nfield f5\ndim 1\ngen a = {entry}\n")
        got, out, err = run(capsys, "homology", "bundled:product_A1",
                            "--rel", "R-", "--rep", str(rep))
        assert got == code and message in out + err

    @pytest.mark.parametrize("field", ["q", "f5"])
    @pytest.mark.parametrize("entry,over_q,over_f5", [
        ("-1/2", Fraction(-1, 2), 2), ("+3", Fraction(3), 3),
        ("2/4", Fraction(1, 2), 3)] + [
        (bad, None, None) for bad in ("1_0", "\u0663", "0.5", "1e3", "1/-2",
                                      "1/+2", "1/2/3", "/2", "1/", "1/0")])
    def test_rational_entries_follow_the_integer_rule(
            self, capsys, tmp_path, field, entry, over_q, over_f5):
        """A matrix entry is [sign]digits or [sign]digits/digits, each part
        an integer as `parse_int` reads it, over Q and over F_p alike;
        Fraction() alone took 1_0 as 10 and \u0663 as 3."""
        dom, want = (QQ, over_q) if field == "q" else (GF(5), over_f5)
        rep = tmp_path / "rep.txt"
        rep.write_text(f"rep 1\nkind matrix\nfield {field}\ndim 1\n"
                       f"gen a = {entry}\n", encoding="utf-8")
        code, out, err = run(capsys, "homology", "bundled:product_A1",
                             "--rep", str(rep))
        if want is None:
            assert (code, out) == (EX_DATA, "")
            assert err == (f"error: {entry!r} is not a rational number"
                           " (line 5)\n")
            with pytest.raises(AlgebraError):
                Matrix.from_rows(dom, [[entry]])
        else:
            assert (code, err) == (EX_OK, "")
            assert Matrix.from_rows(dom, [[entry]]).rows == [[want]]

    @pytest.mark.parametrize("body,message", [
        ("kind perm\ndegree 3\ngen x = (1 2)\ngen y = (1 0_2)\n",
         "non-integer point in '(1 0_2)' (line 5)"),
        ("kind perm\ndegree 3\ngen zz = (1 2)\n",
         "unknown generator 'zz' (line 4)"),
        ("kind matrix\ndim 1\ngen x = 1\ngen y = abc\n",
         "'abc' is not a rational number (line 5)"),
        ("kind matrix\nfield f5\ndim 1\ngen zz = 1\ngen x = 1\n",
         "unknown generator 'zz' (line 5)")],
        ids=["perm-point", "perm-name", "matrix-entry", "matrix-name"])
    def test_rep_gen_errors_give_their_line(self, capsys, tmp_path, body,
                                            message):
        rep = tmp_path / "rep.txt"
        rep.write_text("rep 1\n" + body)
        code, out, err = run(capsys, "homology", "bundled:trefoil",
                             "--rep", str(rep))
        assert (code, out, err) == (EX_DATA, "", f"error: {message}\n")

    def test_bad_rep_rejected(self, capsys, tmp_path):
        doc = tmp_path / "rep.txt"
        for body in ("kind perm\ndegree 2\ngen x = (1 2)\n",  # relator fails
                     "kind perm\ndegree 3\ngen x = (1 2)(1 3)\n",
                     "kind perm\ndegree 3\ngen x = (1 2\n",
                     "kind perm\ndegree 3\ngen = (1 2)\n",
                     "kind perm\ndegree 3\ngen zz = (1 2)\n",
                     "kind matrix\ndim 1\ngen x = abc\ngen y = 1\n"):
            doc.write_text("rep 1\n" + body)
            code, _, err = run(capsys, "homology", "bundled:trefoil",
                               "--rel", "", "--rep", str(doc))
            assert code == EX_DATA, body
            assert err.startswith("error:"), body


class TestVerdictCommands:
    def test_certify_taut_product(self, capsys):
        code, out, _ = run(capsys, "certify-taut", "bundled:product_T1")
        assert code == EX_OK and "certified-taut" in out
        assert "trivial" in out

    def test_certify_taut_refusal(self, capsys):
        code, _, err = run(capsys, "certify-taut",
                           "bundled:meridional_solidtorus")
        assert code == EX_FAIL and "excluded" in err

    def test_certify_unknown(self, capsys, tmp_path):
        from scx.cli import load_document
        from scx.scxio import serialize_scx
        doc = load_document("bundled:meridional_solidtorus")
        doc.metas["excluded_s1xd2"] = "0"
        path = tmp_path / "lie.scx"
        path.write_text(serialize_scx(doc))
        code, out, _ = run(capsys, "certify-taut", str(path),
                           "--max-degree", "2")
        assert code == EX_UNKNOWN and "unknown" in out

    def test_certify_max_degree_has_no_effect(self, capsys, tmp_path):
        """--max-degree is accepted and checked, but only the trivial
        representation is tested."""
        from scx.cli import load_document
        from scx.scxio import serialize_scx
        doc = load_document("bundled:meridional_solidtorus")
        doc.metas["excluded_s1xd2"] = "0"
        path = tmp_path / "lie.scx"
        path.write_text(serialize_scx(doc))
        code, out, _ = run(capsys, "certify-taut", str(path),
                           "--max-degree", "2")
        assert code == EX_UNKNOWN
        assert "search.degrees: trivial only" in out.splitlines()
        assert "search.representations_tested: 1" in out.splitlines()
        code, out, err = run(capsys, "certify-taut", str(path),
                             "--max-degree", "0")
        assert code == EX_USAGE and err.startswith("usage error:")

    def test_nonproduct_slope2(self, capsys):
        code, out, _ = run(capsys, "nonproduct", "bundled:slope2_solidtorus",
                           "--max-degree", "2")
        assert code == EX_OK and "certified-not-product" in out

    def test_nonproduct_unknown_on_product(self, capsys):
        code, out, _ = run(capsys, "nonproduct", "bundled:product_T1",
                           "--max-degree", "2")
        assert code == EX_UNKNOWN

    def test_nonproduct_regular_cap_zero(self, capsys):
        """0 is a valid cap: the index test alone on nontrivial images."""
        code, out, _ = run(capsys, "nonproduct", "bundled:slope2_solidtorus",
                           "--max-degree", "2", "--max-regular-dim", "0")
        assert code == EX_OK and "test: index" in out
        assert "over cap, index test only" in out

    def test_nonproduct_refusal(self, capsys):
        code, _, err = run(capsys, "nonproduct", "bundled:trefoil")
        assert code == EX_FAIL and err.startswith("refused:") and "R-" in err


class TestOtherCommands:
    def test_bounds(self, capsys):
        code, out, _ = run(capsys, "bounds", "bundled:product_T1")
        assert code == EX_OK and "x(M,gamma) >= 1" in out and "sharp: yes" in out

    def test_double_roundtrip(self, capsys, tmp_path):
        out_path = tmp_path / "dm.scx"
        code, out, _ = run(capsys, "double", "bundled:slope2_solidtorus",
                           "-o", str(out_path))
        assert code == EX_OK and "chi = 0" in out and "t=1" in out
        code, out, _ = run(capsys, "check", str(out_path))
        assert code == EX_OK

    @pytest.mark.parametrize("where", ["missing_dir", "directory"])
    def test_double_unwritable_output(self, capsys, tmp_path, where):
        target = (tmp_path / "no" / "such" / "dm.scx" if where == "missing_dir"
                  else tmp_path)
        code, out, err = run(capsys, "double", "bundled:slope2_solidtorus",
                             "-o", str(target))
        assert code == EX_USAGE and out == ""
        assert err.startswith(f"usage error: cannot write {target}:")
        assert "Traceback" not in err

    def test_double_refuses_unbalanced_euler_numbers(self, capsys, tmp_path):
        """R+ = vp passes validate, but 2 chi(M) = -2 != chi(R-) + chi(R+)
        = -1 + 1: refused before anything is built or written."""
        path, target = tmp_path / "unbalanced.scx", tmp_path / "dm.scx"
        path.write_text(unbalanced_text())
        assert run(capsys, "check", str(path))[0] == EX_OK
        proc = subprocess.run(
            [sys.executable, "-m", "scx", "double", str(path), "-o",
             str(target)], capture_output=True, text=True)
        assert (proc.returncode, proc.stdout) == (EX_FAIL, "")
        assert proc.stderr == ("refused: double needs 2 chi(M) = chi(R-) +"
                               " chi(R+), but chi(M) = -1, chi(R-) = -1,"
                               " chi(R+) = 1\n")
        assert not target.exists()

    def test_alex_trefoil(self, capsys):
        code, out, _ = run(capsys, "alex", "bundled:trefoil", "--phi", "ab",
                           "--rep", "trivial:1")
        assert code == EX_OK
        assert "Delta_1 = 1 - t + t^2" in out
        assert "norm lower bound: 1" in out

    def test_alex_deg_only(self, capsys):
        code, out, _ = run(capsys, "alex", "bundled:figure8", "--phi", "ab",
                           "--deg-only")
        assert code == EX_OK and "deg Delta_1 = 2" in out

    def test_alex_inline_phi(self, capsys):
        code, out, _ = run(capsys, "alex", "bundled:trefoil",
                           "--phi", "inline:x=1,y=1")
        assert code == EX_OK and "Delta_1 = 1 - t + t^2" in out

    def test_quotients(self, capsys):
        code, out, _ = run(capsys, "quotients", "bundled:trefoil",
                           "--max-degree", "3")
        assert code == EX_OK and "total: 14" in out

    def test_quotients_transitive(self, capsys):
        code, out, _ = run(capsys, "quotients", "bundled:trefoil",
                           "--max-degree", "3", "--transitive")
        assert code == EX_OK
        assert all("intransitive" not in line
                   for line in out.splitlines() if line.startswith("degree"))


    @pytest.mark.parametrize("name", ["d3_two_sutures", "product_D2"])
    def test_quotients_transitive_without_generators(self, capsys, name):
        code, out, _ = run(capsys, "quotients", f"bundled:{name}",
                           "--max-degree", "4", "--transitive")
        assert code == EX_OK and out == "total: 0\n"


def _product_T1(tmp_path, old, new):
    """product_T1's text with one line replaced, written to a file."""
    text = (resources.files("scx.data") / "product_T1.scx").read_text()
    if old not in text.splitlines():
        raise ValueError(f"no line {old!r}")
    path = tmp_path / "edited.scx"
    path.write_text(text.replace(old + "\n", new + "\n"))
    return str(path)


class TestStrictInput:
    @pytest.mark.parametrize("value,code", [
        ("1", EX_OK), ("true", EX_OK), ("Yes", EX_OK), ("TRUE", EX_OK),
        ("0", EX_FAIL), ("False", EX_FAIL), ("NO", EX_FAIL), ("no", EX_FAIL),
        ("", EX_DATA), ("2", EX_DATA), ("maybe", EX_DATA)])
    def test_flag_values(self, capsys, tmp_path, value, code):
        """0/1, false/true, no/yes in any case; anything else is bad data."""
        path = _product_T1(tmp_path, "meta irreducible 1",
                           f"meta irreducible {value}")
        got, out, err = run(capsys, "certify-taut", path)
        assert got == code, out + err
        if code == EX_OK:
            assert "witness.assumptions: irreducible (user-asserted)" in out
        elif code == EX_FAIL:
            assert err == ("refused: irreducibility is not asserted in"
                           " metadata\n")
        else:
            assert err.startswith("error: meta irreducible must be 0/1")

    def test_sub_lists_a_cell_twice(self, capsys, tmp_path):
        path = _product_T1(tmp_path, "sub R- = vm am bm",
                           "sub R- = vm am bm vm")
        for command in ("check", "certify-taut"):
            code, out, err = run(capsys, command, path)
            assert (code, out) == (EX_DATA, ""), command
            assert err == ("error: subcomplex 'R-' lists cell 'vm' twice"
                           " (line 20)\n")

    def test_certify_taut_validates(self, capsys, tmp_path):
        """certify-taut refuses a structure that check and bounds reject."""
        path = _product_T1(tmp_path, "meta sutures 1", "meta sutures 0")
        Path(path).write_text(Path(path).read_text().replace(
            "meta chi_rminus -1", "meta chi_rminus 7"))
        code, out, _ = run(capsys, "check", path)
        assert code == EX_FAIL and out.count("error: ") == 2
        for command in ("certify-taut", "bounds"):
            code, out, err = run(capsys, command, path)
            assert (code, out) == (EX_FAIL, ""), command
            assert err.startswith("refused: validation failed:\n"), command
            assert "error: suture count must be a positive integer" in err
            assert "error: chi(R-) = -1 but metadata says 7" in err

    def test_oversized_field_tag_fails_at_once(self, capsys, tmp_path,
                                               monkeypatch):
        """(2^31 - 1)^2 is refused by its size, before any trial division."""
        import scx.algebra

        def no_trial_division(p):
            raise RuntimeError(f"trial division of {p}")
        monkeypatch.setattr(scx.algebra, "_is_prime", no_trial_division)
        tag = f"f{(2**31 - 1) ** 2}"
        code, _, err = run(capsys, "homology", "bundled:product_T1",
                           "--field", tag)
        assert code == EX_USAGE and "not a supported prime" in err
        rep = tmp_path / "rep.txt"
        rep.write_text(f"rep 1\nkind trivial\nfield {tag}\n")
        code, _, err = run(capsys, "homology", "bundled:product_T1",
                           "--rep", str(rep))
        assert code == EX_DATA and "not a supported prime" in err


    @pytest.mark.parametrize("tag", ["f" + "9" * 5000, "f\u00b2"],
                             ids=["5000-digits", "superscript-two"])
    def test_field_tag_not_ascii_digits(self, capsys, tmp_path, tag):
        """int() refuses both tags: the first is past Python's limit on
        digits, the second is a digit to str.isdigit only."""
        code, out, err = run(capsys, "homology", "bundled:product_T1",
                             "--field", tag)
        assert (code, out) == (EX_USAGE, "")
        assert err.startswith("usage error: argument --field: ")
        rep = tmp_path / "rep.txt"
        rep.write_text(f"rep 1\nkind trivial\nfield {tag}\n",
                       encoding="utf-8")
        code, out, err = run(capsys, "homology", "bundled:product_T1",
                             "--rep", str(rep))
        assert (code, out) == (EX_DATA, "")
        assert err in ("error: a number of 5000 digits is not a supported"
                       " prime\n", "error: unknown field tag 'f\u00b2'\n")

    @pytest.mark.parametrize("old,new,message", [
        ("meta irreducible 1", "meta irreducible maybe",
         "meta irreducible must be 0/1, false/true or no/yes, got 'maybe'"
         " (line 25)"),
        ("meta sutures 1", "meta sutures two",
         "meta sutures must be an integer, got 'two' (line 24)")],
        ids=["flag", "integer"])
    def test_meta_value_errors_give_their_line(self, capsys, tmp_path, old,
                                               new, message):
        path = _product_T1(tmp_path, old, new)
        for command in ("certify-taut", "nonproduct", "bounds"):
            code, out, err = run(capsys, command, path)
            assert (code, out, err) == (EX_DATA, "", f"error: {message}\n")

    @pytest.mark.parametrize("old,new,message", [
        ("meta sutures 1", "meta sutures 1_0",
         "meta sutures must be an integer, got '1_0' (line 24)"),
        ("cell vm dim 0", "cell vm dim 0_0",
         "cell dimension must be an integer (line 4, column 13)"),
        ("bnd am = 1*a*vm + -1*1*vm", "bnd am = 1*a*vm + -0_1*1*vm",
         "bad coefficient '-0_1' (line 13)"),
        ("bnd am = 1*a*vm + -1*1*vm", "bnd am = 1*a^*vm + -1*1*vm",
         "bad boundary word: bad exponent '' in word 'a^' (line 13)"),
        ("bnd am = 1*a*vm + -1*1*vm", "bnd am = 1*a*vm + -1**1*vm",
         "bad boundary word: empty factor in word '*1' (line 13)")],
        ids=["meta", "dim", "coefficient", "exponent", "factor"])
    def test_integer_and_word_errors_give_their_line(self, capsys, tmp_path,
                                                     old, new, message):
        """int() alone would read 1_0 as 10, and the old word reader took
        an empty exponent or factor for none."""
        path = _product_T1(tmp_path, old, new)
        for command in ("certify-taut", "nonproduct", "bounds"):
            code, out, err = run(capsys, command, path)
            assert (code, out, err) == (EX_DATA, "", f"error: {message}\n")

    @pytest.mark.parametrize("exponent", ["100001", "-3000000"])
    def test_word_exponents_are_bounded(self, capsys, tmp_path, exponent):
        """A relator that spells out more than 10^5 letters is malformed and
        refused at once: x^3000000 once took seconds to expand."""
        path = tmp_path / "long.scx"
        path.write_text(f"scx 1\ngen x\nrel x^{exponent}\ncell v dim 0\n")
        for command in ("check", "quotients"):
            start = time.perf_counter()
            code, out, err = run(capsys, command, str(path))
            assert time.perf_counter() - start < 1.0, command
            assert (code, out, err) == (
                EX_DATA, "", "error: bad relator word: word expands to more"
                " than 100000 letters (line 3)\n"), command
        path = _product_T1(tmp_path, "bnd am = 1*a*vm + -1*1*vm",
                           f"bnd am = 1*a^{exponent}*vm + -1*1*vm")
        code, out, err = run(capsys, "check", path)
        assert (code, out, err) == (
            EX_DATA, "", "error: bad boundary word: word expands to more"
            " than 100000 letters (line 13)\n")

    def test_check_reports_before_a_bad_meta_value(self, capsys, tmp_path):
        """check prints what it knows of the complex before reading the
        sutured metadata."""
        path = _product_T1(tmp_path, "meta sutures 1", "meta sutures two")
        code, out, err = run(capsys, "check", path)
        assert (code, out) == (EX_DATA, "cells: 9, chi = -1\n"
                               "d^2 under abelianization: ok\n")
        assert err == ("error: meta sutures must be an integer, got 'two'"
                       " (line 24)\n")


class TestInlineSpellings:
    """An inline --rep or --phi value and the file lines it spells give the
    same representation or class; malformed, the inline value is a usage
    error (64) and the file is bad data (65)."""

    @pytest.mark.parametrize("name,spec,body,field", [
        ("product_T1", "trivial:1", "kind trivial\ndim 1\n", []),
        ("product_T1", "trivial:3", "kind trivial\ndim 3\n", []),
        ("product_T1", "perm:3:a=(1 2 3),b=(1 2)",
         "kind perm\ndegree 3\ngen a = (1 2 3)\ngen b = (1 2)\n", []),
        ("product_T1", "perm:4:b=(1 3)(2 4)",
         "kind perm\ndegree 4\ngen b = (1 3)(2 4)\n", []),
        ("trefoil", "perm:3:x=(1 2),y=(2 3)",
         "kind perm\ndegree 3\ngen x = (1 2)\ngen y = (2 3)\n", []),
        ("trefoil", "perm:3:x=(1,2),y=(2,3)",
         "kind perm\ndegree 3\ngen x = (1,2)\ngen y = (2,3)\n", []),
        ("product_T1", "trivial:2", "kind trivial\ndim 2\n",
         ["--field", "f5"]),
        ("trefoil", "perm:3:x=(1 2),y=(2 3)",
         "kind perm\ndegree 3\ngen x = (1 2)\ngen y = (2 3)\n",
         ["--field", "f5"])])
    def test_same_representation(self, capsys, tmp_path, name, spec, body,
                                 field):
        from scx.cli import build_parser, resolve_representation
        path = tmp_path / "rep.txt"
        path.write_text("rep 1\n" + body)
        dom = build_parser().parse_args(["homology", "x", *field]).field
        pres = load_document(f"bundled:{name}").presentation()
        inline = resolve_representation(spec, pres, dom)
        filed = resolve_representation(str(path), pres, dom)
        assert inline.describe() == filed.describe()
        assert inline.dom is filed.dom
        assert [m.rows for m in inline.mats] == [m.rows for m in filed.mats]
        outs = [run(capsys, "homology", f"bundled:{name}", "--rep", rep,
                    *field) for rep in (spec, str(path))]
        assert outs[0] == outs[1] and outs[0][0] == EX_OK

    @pytest.mark.parametrize("spec,body", [
        ("trivial:0", "kind trivial\ndim 0\n"),
        ("trivial:abc", "kind trivial\ndim abc\n"),
        ("perm:x:", "kind perm\ndegree x\n"),
        ("perm:0:", "kind perm\ndegree 0\n"),
        ("perm:3:a=(1 2", "kind perm\ndegree 3\ngen a = (1 2\n"),
        ("perm:3:a=(1 2)(1 3)", "kind perm\ndegree 3\ngen a = (1 2)(1 3)\n"),
        ("perm:3:zz=(1 2)", "kind perm\ndegree 3\ngen zz = (1 2)\n"),
        ("perm:3:a=(1 2),a=(1 3)",
         "kind perm\ndegree 3\ngen a = (1 2)\ngen a = (1 3)\n"),
        ("perm:3:a", "kind perm\ndegree 3\ngen a\n"),
        ("trivial:1_0", "kind trivial\ndim 1_0\n"),
        ("perm:0_3:", "kind perm\ndegree 0_3\n"),
        ("perm:3:a=(1 0_2)", "kind perm\ndegree 3\ngen a = (1 0_2)\n")])
    def test_malformed(self, capsys, tmp_path, spec, body):
        path = tmp_path / "rep.txt"
        path.write_text("rep 1\n" + body)
        code, out, err = run(capsys, "homology", "bundled:product_T1",
                             "--rep", spec)
        assert (code, out) == (EX_USAGE, "") and err.startswith("usage error:")
        code, out, err = run(capsys, "homology", "bundled:product_T1",
                             "--rep", str(path))
        assert (code, out) == (EX_DATA, "") and err.startswith("error:")

    def test_same_phi(self):
        from scx.cli import resolve_phi
        from scx.scxio import parse_scx
        doc = parse_scx("scx 1\ngen x y\nmeta phi c x=1 y=0\n")
        assert (resolve_phi("inline:x=1,y=0", doc).values
                == resolve_phi("c", doc).values == {"x": 1, "y": 0})

    def test_same_phi_on_trefoil(self, capsys, tmp_path):
        inline = run(capsys, "alex", "bundled:trefoil", "--phi",
                     "inline:x=1,y=1")
        assert inline == run(capsys, "alex", "bundled:trefoil", "--phi", "ab")
        assert inline[0] == EX_OK
        text = (resources.files("scx.data") / "trefoil.scx").read_text()
        path = tmp_path / "phi.scx"
        path.write_text(text.replace("meta phi ab x=1 y=1",
                                     "meta phi ab x=1 y=0"))
        code, _, err = run(capsys, "alex", str(path), "--phi", "ab")
        assert code == EX_DATA and "does not vanish" in err
        code, _, err = run(capsys, "alex", "bundled:trefoil", "--phi",
                           "inline:x=1,y=0")
        assert code == EX_USAGE and "does not vanish" in err


class TestUsageAndErrors:
    def test_unknown_phi(self, capsys):
        code, _, err = run(capsys, "alex", "bundled:trefoil", "--phi", "nope")
        assert code == EX_USAGE

    def test_unknown_bundled(self, capsys):
        code, _, err = run(capsys, "check", "bundled:nothing")
        assert code == EX_USAGE and "available" in err

    def test_missing_file(self, capsys, tmp_path):
        from scx.cli import load_document
        from scx.scxio import serialize_scx
        doc = load_document("bundled:product_T1")
        doc.metas["sutures"] = "two"
        bad_meta = tmp_path / "sutures.scx"
        bad_meta.write_text(serialize_scx(doc))
        trefoil = load_document("bundled:trefoil")
        bad_phis = []
        for k, line in enumerate(("meta phi ab x=1 x=2", "meta phi ab z=1",
                                  "meta phi ab x=1 y=0")):
            path = tmp_path / f"phi{k}.scx"
            path.write_text(serialize_scx(trefoil).replace(
                "meta phi ab x=1 y=1", line))
            bad_phis.append(["alex", str(path), "--phi", "ab"])
        bad_reps = []
        for k, body in enumerate(("kind perm\ndegree 3\n"
                                  "gen x = (1 2 3)\ngen x = (1 3 2)\n",
                                  "kind matrix\nfield f4\ndim 1\n"
                                  "gen x = 1\ngen y = 1\n")):
            path = tmp_path / f"rep{k}.txt"
            path.write_text("rep 1\n" + body)
            bad_reps.append(["homology", "bundled:trefoil", "--rep", str(path)])
        repeats = []
        for k, (name, line) in enumerate((
                ("product_T1", "bnd am = 1*a*vm + -1*1*vm"),
                ("product_T1", "sub R- = vm"),
                ("product_T1", "meta name other"),
                ("trefoil", "meta phi ab x=1 y=1"))):
            path = tmp_path / f"repeat{k}.scx"
            path.write_text(serialize_scx(load_document(f"bundled:{name}"))
                            + line + "\n")
            repeats.append(["check", str(path)])
        for argv in (["check", "/no/such/file.scx"],
                     ["homology", "bundled:product_T1", "--rep", "/missing"],
                     ["check", str(bad_meta)], *bad_phis, *bad_reps,
                     *repeats):
            code, _, err = run(capsys, *argv)
            assert code == EX_DATA, argv
            assert err.startswith("error:"), argv

    def test_non_utf8_input(self, capsys, tmp_path):
        """Undecodable bytes in an .scx or a --rep file are bad data."""
        bad = tmp_path / "g.scx"
        bad.write_bytes(b"\xff\xfe")
        rep = tmp_path / "rep.txt"
        rep.write_bytes(b"rep 1\nkind perm\ndegree 2\ngen x = (1 2)\xff\n")
        for argv, path in ((["check", str(bad)], bad),
                           (["homology", "bundled:trefoil", "--rep", str(rep)],
                            rep)):
            code, out, err = run(capsys, *argv)
            assert code == EX_DATA and out == "", argv
            assert err.startswith(f"error: cannot read {path}: 'utf-8' codec"
                                  " can't decode byte 0xff"), argv

    def test_usage_error_code(self, capsys):
        for argv in (["homology"],
                     ["homology", "bundled:product_T1", "--rep", "trivial:abc"],
                     ["homology", "bundled:product_T1",
                      "--rep", "perm:3:a=(1 2)(1 3)"],
                     ["homology", "bundled:product_T1", "--rep", "perm:3:a=(1 2"],
                     ["homology", "bundled:product_T1", "--rep", "perm:3:zz=(1 2)"],
                     ["homology", "bundled:product_T1",
                      "--rep", "perm:3:a=(1 2),a=(1 3)"],
                     ["homology", "bundled:product_T1", "--rel", "R9"],
                     ["alex", "bundled:trefoil", "--phi", "inline:x=q"],
                     ["alex", "bundled:trefoil", "--phi", "inline:x=1,y=0"],
                     ["alex", "bundled:trefoil", "--phi", "inline:z=1"],
                     ["alex", "bundled:trefoil", "--phi", "inline:x=1,x=0,y=1"],
                     ["homology", "bundled:product_T1", "--field", "f4"],
                     ["bounds", "bundled:product_T1", "--field", "fx"],
                     ["alex", "bundled:trefoil", "--phi", "ab", "--field", "f4"],
                     ["nonproduct", "bundled:product_T1", "--max-degree", "-1"],
                     ["nonproduct", "bundled:product_T1", "--max-degree", "2",
                      "--max-regular-dim", "-5"],
                     ["nonproduct", "bundled:product_T1", "--max-degree", "2",
                      "--max-regular-dim", "x"],
                     ["quotients", "bundled:product_T1", "--max-degree", "-1"]):
            code, _, err = run(capsys, *argv)
            assert code == EX_USAGE, argv
            assert err.startswith("usage error:"), argv
        code, _, err = run(capsys, "homology", "bundled:product_T1",
                           "--rel", "R9")
        assert "declared: R-, R+" in err

    @pytest.mark.parametrize("argv", [
        ["nonproduct", "bundled:product_T1", "--max-degree", "0_2"],
        ["quotients", "bundled:product_T1", "--max-degree", "\u0662"],
        ["nonproduct", "bundled:product_T1", "--max-degree", "2",
         "--max-regular-dim", "6_4"],
        ["alex", "bundled:trefoil", "--phi", "inline:x=1_0,y=1_0"]],
        ids=["underscore", "arabic-indic", "regular-dim", "phi"])
    def test_integer_options_are_sign_and_ascii_digits(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (EX_USAGE, "") and err.startswith("usage error:")

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "scx", "homology", "bundled:product_T1",
             "--rel", "R-"], capture_output=True, text=True)
        assert proc.returncode == 0
        assert "b = (0, 0, 0, 0)" in proc.stdout


# A commutator complex over F(x, y): the abelianized d^2 is 0, but
# d^2 F = (1 - y) (x - 1) v + (x - 1) (y - 1) v = (x y - y x) v is not zero
# in the group ring, so a representation where x and y do not commute
# exposes it.
COMMUTATOR = ("scx 1\ngen x y\ncell v dim 0\ncell ex dim 1\ncell ey dim 1\n"
              "cell F dim 2\nbnd ex = 1*x*v + -1*1*v\nbnd ey = 1*y*v + -1*1*v\n"
              "bnd F = 1*1*ex + 1*x*ey + -1*y*ex + -1*1*ey\n")
NONCOMMUTING = "perm:3:x=(1 2),y=(2 3)"


class TestRepresentationDSquared:
    @pytest.fixture
    def path(self, tmp_path):
        path = tmp_path / "commutator.scx"
        path.write_text(COMMUTATOR)
        return str(path)

    def test_abelian_check_passes(self, capsys, path):
        code, out, _ = run(capsys, "check", path)
        assert code == EX_OK and "d^2 under abelianization: ok" in out

    @pytest.mark.parametrize("argv,field", [
        (["homology", "{path}", "--rep", NONCOMMUTING], "Q"),
        (["homology", "{path}", "--rep", NONCOMMUTING, "--field", "f5"], "F5"),
        (["alex", "{path}", "--phi", "inline:x=1,y=0", "--rep", NONCOMMUTING],
         "Q[t^±1]")], ids=["homology", "homology-f5", "alex"])
    def test_rejected_under_representation(self, capsys, path, argv, field):
        code, out, err = run(capsys, *(a.format(path=path) for a in argv))
        assert code == EX_DATA and out == ""
        assert err == (f"error: d^2 != 0 under permutation k=3 over {field}"
                       " at degree 2: ill-formed input data\n")

    @pytest.mark.parametrize("command", ["homology", "alex"])
    def test_commuting_images_pass(self, capsys, path, command):
        argv = [command, path, "--rep", "perm:2:x=(1 2),y=(1 2)"]
        if command == "alex":
            argv += ["--phi", "inline:x=1,y=0"]
        code, _, err = run(capsys, *argv)
        assert code == EX_OK and err == ""


class TestWorkDoneOnce:
    """Each command builds the document's complex once (`double` also builds
    its output's), and `nonproduct` describes only the quotient it returns
    as its witness."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = Counter()
        for cls, name in ((ScxDocument, "complex"),
                          (FiniteQuotient, "describe")):
            def counted(self, *args, _name=name, _fn=getattr(cls, name)):
                calls[_name] += 1
                return _fn(self, *args)
            monkeypatch.setattr(cls, name, counted)
        return calls

    @pytest.mark.parametrize("argv,builds", [
        (["check", "bundled:product_T1"], 1),
        (["homology", "bundled:product_T1"], 1),
        (["homology", "bundled:product_T1", "--rel", "R-"], 1),
        (["certify-taut", "bundled:product_T1"], 1),
        (["nonproduct", "bundled:product_T1", "--max-degree", "2"], 1),
        (["bounds", "bundled:product_T1"], 1),
        (["alex", "bundled:trefoil", "--phi", "ab"], 1),
        (["double", "bundled:slope2_solidtorus", "-o", "{tmp}/dm.scx"], 2)],
        ids=lambda v: v if isinstance(v, int) else " ".join(v[:1] + v[2:]))
    def test_complex_builds(self, capsys, tmp_path, calls, argv, builds):
        code, _, err = run(capsys, *(a.format(tmp=tmp_path) for a in argv))
        assert code in (EX_OK, EX_UNKNOWN), err
        assert calls["complex"] == builds

    @pytest.mark.parametrize("name,degree,code,describes", [
        ("slope2_solidtorus", "3", EX_OK, 1),
        ("product_T1", "2", EX_UNKNOWN, 0)])
    def test_describe_only_the_witness(self, capsys, calls, name, degree,
                                       code, describes):
        got, out, _ = run(capsys, "nonproduct", f"bundled:{name}",
                          "--max-degree", degree)
        assert got == code
        assert calls["describe"] == describes
        assert out.count("witness.quotient:") == describes


# 38 mutated texts, each under the 8 commands: about 300 cases
FUZZ_TEXTS = 38
FUZZ_COMMANDS = (["check"], ["homology", "--rel", "R-"], ["certify-taut"],
                 ["nonproduct", "--max-degree", "2"], ["bounds"],
                 ["alex", "--phi", "ab"], ["quotients", "--max-degree", "2"],
                 ["double", "-o", "{out}"])
FUZZ_TOKENS = ("0", "1", "-1", "2", "3", "x", "y", "a", "zz", "x^-1", "x^2",
               "1*x*v", "*", "+", "=", "-", "dim", "cell", "bnd", "sub",
               "meta", "phi", "gen", "rel", "R-", "R+", "gamma", "scx",
               "sutures", "irreducible", "ab=1", "x=", "#", "1/2", "ΔΔ")


def _mutate(rng, text):
    """One random edit of an .scx text: replace, insert or delete a token,
    or duplicate or drop a line."""
    lines = text.splitlines()
    i = rng.randrange(len(lines))
    edit = rng.choice(("replace", "insert", "delete", "duplicate", "drop"))
    if edit == "duplicate":
        lines.insert(rng.randrange(len(lines) + 1), lines[i])
    elif edit == "drop":
        del lines[i]
    else:
        tokens = lines[i].split(" ")
        j = rng.randrange(len(tokens))
        if edit == "replace":
            tokens[j] = rng.choice(FUZZ_TOKENS)
        elif edit == "insert":
            tokens.insert(j, rng.choice(FUZZ_TOKENS))
        else:
            del tokens[j]
        lines[i] = " ".join(tokens)
    return "\n".join(lines) + "\n"


def test_malformed_input_never_escapes(capsys, tmp_path):
    """Seeded mutations of the bundled inputs end in a documented exit code
    under every command, never in an exception."""
    texts = [(resources.files("scx.data") / f"{name}.scx").read_text()
             for name in bundled_names()]
    rng = random.Random(18)
    path, out = tmp_path / "fuzz.scx", str(tmp_path / "double.scx")
    for _ in range(FUZZ_TEXTS):
        text = rng.choice(texts)
        for _ in range(rng.randint(1, 3)):
            text = _mutate(rng, text)
        path.write_text(text)
        for command in FUZZ_COMMANDS:
            argv = [command[0], str(path)] + [a.format(out=out)
                                              for a in command[1:]]
            code, _, err = run(capsys, *argv)
            assert code in (EX_OK, EX_FAIL, EX_UNKNOWN, EX_USAGE, EX_DATA), (
                argv, text, err)
