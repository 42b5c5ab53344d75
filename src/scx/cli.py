"""Command line front end.

Exit codes: 0 for success / positive certificates, 1 for failed checks and
precondition refusals, 2 for unknown (search exhausted), 64 for usage errors,
65 for unreadable or malformed input data.  Reports go to stdout, diagnostics
to stderr.  `FILE` arguments accept plain paths or `bundled:NAME` for the
shipped corpus.
"""

from __future__ import annotations

import argparse
import sys

from .algebra import QQ, AlgebraError, Matrix, field_by_tag
from .chain import ChainError, betti, euler_check, h0_vanishing_check, specialize
from .groups import (CohomologyClass, GroupError, enumerate_quotients,
                     make_representation, parse_int, perm_from_cycles,
                     permutation_quotient, permutation_representation,
                     trivial_representation)
from .scxio import (ParseError, RepDocument, inline_rep, parse_assignments,
                    parse_rep, parse_scx, serialize_scx)
from .sutured import (PreconditionError, SuturedComplex,
                      complexity_lower_bound, certify_taut, double,
                      nonproduct_search, validate)

EX_OK = 0
EX_FAIL = 1
EX_UNKNOWN = 2
EX_USAGE = 64
EX_DATA = 65


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def bundled_names():
    from importlib import resources
    return sorted(p.name[:-4] for p in resources.files("scx.data").iterdir()
                  if p.name.endswith(".scx"))


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as e:
        raise ParseError(f"cannot read {path}: {e}") from e


def load_document(spec: str):
    if spec.startswith("bundled:"):
        from importlib import resources
        name = spec.split(":", 1)[1]
        ref = resources.files("scx.data") / f"{name}.scx"
        if not ref.is_file():
            raise UsageError(f"no bundled example {name!r}; available:"
                             f" {', '.join(bundled_names())}")
        text = ref.read_text()
    else:
        text = _read_text(spec)
    return parse_scx(text)


def resolve_representation(spec: str, pres, dom):
    """--rep value: a file path, or `trivial:k` or `perm:<degree>:x=(..)`,
    which spell a file's lines (`scxio.inline_rep`).  `dom` is the --field
    value or None.  A malformed inline spec is a usage error; a malformed
    file is bad data."""
    if not spec.startswith(("trivial:", "perm:")):
        return representation_from_document(parse_rep(_read_text(spec)), pres,
                                            dom)
    try:
        return representation_from_document(inline_rep(spec), pres, dom)
    except ParseError as e:
        raise UsageError(f"--rep: {e}") from e


def representation_from_document(doc: RepDocument, pres, dom):
    """The representation a file describes, over --field if it is given
    (`dom` not None), else over the file's `field`, else over Q.  A file
    field that differs from --field is a usage error."""
    if doc.field_tag is not None:
        file_dom = field_by_tag(doc.field_tag)
        if dom is not None and dom is not file_dom:
            raise UsageError(f"--field {dom.name} differs from the file's"
                             f" field {file_dom.name}")
        dom = file_dom
    dom = dom or QQ

    def image(name, build, *args):
        """build(*args) for generator `name`; an unknown name or a malformed
        image is reported at the name's `gen` line."""
        try:
            pres.gen_index(name)
            return build(*args)
        except (GroupError, AlgebraError) as e:
            raise ParseError(str(e), doc.gen_lines.get(name)) from e

    if doc.kind == "trivial":
        return trivial_representation(pres, doc.dim, dom)
    try:
        if doc.kind == "perm":
            # each image first on its own, so that an error names its line
            for name, text in doc.perms.items():
                image(name, perm_from_cycles, text, doc.degree)
            q = permutation_quotient(pres, doc.degree, doc.perms)
            return permutation_representation(q, dom)
        mats = {name: image(name, Matrix.from_rows, dom, rows)
                for name, rows in doc.matrices.items()}
        for g in pres.gens:
            if g not in mats:
                raise ParseError(f"matrix representation missing generator {g!r}")
        return make_representation(pres, [mats[g] for g in pres.gens],
                                   unitary=doc.unitary_assertion)
    except GroupError as e:
        raise ParseError(str(e)) from e


def resolve_phi(spec: str, doc):
    """--phi value: a class declared in the file, or inline:g=1,h=0.

    An inline class names each generator of the file at most once.  The
    class must vanish on the relators; an inline class that does not is a
    usage error, a declared one is bad data.
    """
    if spec.startswith("inline:"):
        try:
            values = parse_assignments(spec.partition(":")[2].split(","),
                                       parse_int)
        except ParseError as e:
            raise UsageError(f"--phi: {e}") from e
        for name in values:
            if name not in doc.gens:
                raise UsageError(f"phi names unknown generator {name!r}")
        error = UsageError
    elif spec in doc.phis:
        values = doc.phis[spec]
        error = ParseError
    else:
        raise UsageError(f"no phi class named {spec!r} in the file;"
                         f" declared: {', '.join(doc.phis) or 'none'}")
    phi = CohomologyClass(values)
    if not phi.is_cocycle(doc.presentation()):
        raise error(f"phi {spec!r} does not vanish on the relators")
    return phi


def _field(text):
    """argparse type of --field: q, f2, f3, f5, ..."""
    try:
        return field_by_tag(text)
    except AlgebraError as e:
        raise argparse.ArgumentTypeError(str(e)) from None


def _at_least(text, low):
    value = parse_int(text)
    if value < low:
        raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
    return value


def _max_degree(text):
    """argparse type of --max-degree, which enumerate_quotients needs >= 1."""
    return _at_least(text, 1)


def _max_regular_dim(text):
    """argparse type of --max-regular-dim; 0 leaves the index test only
    (on every quotient with a nontrivial image)."""
    return _at_least(text, 0)


# ---------------------------------------------------------------------------
# subcommands


def cmd_check(args):
    doc = load_document(args.file)
    cx = doc.complex()
    failures = 0
    print(f"cells: {sum(len(cx.cells[d]) for d in range(4))},"
          f" chi = {cx.euler_characteristic()}")
    print("d^2 under abelianization: ok")  # doc.complex() checked it
    sc = SuturedComplex(doc, cx)
    trivial = trivial_representation(cx.group, 1, QQ)
    if sc.has_sutured_structure():
        report = validate(sc)
        print(report)
        if not report.ok:
            failures += 1
        try:
            rminus = sc.rminus()
            print(euler_check(cx, rminus, trivial))
            print(h0_vanishing_check(cx, rminus, trivial,
                                     manifold3=sc.manifold3))
        except ChainError as e:
            print(f"pair checks FAILED: {e}")
            failures += 1
    else:
        try:
            specialize(cx, trivial, None)
            print("specialization under the trivial representation: ok")
        except ChainError as e:
            print(f"specialization FAILED: {e}")
            failures += 1
    return EX_FAIL if failures else EX_OK


def cmd_homology(args):
    doc = load_document(args.file)
    cx = doc.complex()
    rep = resolve_representation(args.rep, cx.group, args.field)
    rel = None
    if args.rel:
        if args.rel not in doc.subs:
            raise UsageError(f"no subcomplex named {args.rel!r} in the file;"
                             f" declared: {', '.join(doc.subs) or 'none'}")
        rel = SuturedComplex(doc, cx).ref(args.rel)
    bv = betti(specialize(cx, rep, rel))
    pair = f"(M, {args.rel})" if args.rel else "M"
    print(f"pair: {pair}")
    print(f"representation: {rep.describe()}")
    print(f"b = {bv}")
    return EX_OK


def cmd_certify_taut(args):
    doc = load_document(args.file)
    sc = SuturedComplex(doc)
    verdict = certify_taut(sc)
    print(verdict.report())
    return EX_OK if verdict.status == "certified-taut" else EX_UNKNOWN


def cmd_nonproduct(args):
    doc = load_document(args.file)
    sc = SuturedComplex(doc)
    verdict = nonproduct_search(sc, max_degree=args.max_degree,
                                regular_cap=args.max_regular_dim)
    print(verdict.report())
    return EX_OK if verdict.status == "certified-not-product" else EX_UNKNOWN


def cmd_bounds(args):
    doc = load_document(args.file)
    sc = SuturedComplex(doc)
    rep = resolve_representation(args.rep, sc.cx.group, args.field)
    print(complexity_lower_bound(sc, rep))
    return EX_OK


def cmd_double(args):
    doc = load_document(args.file)
    sc = SuturedComplex(doc)
    result = double(sc)
    text = serialize_scx(result.document)
    try:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as e:
        raise UsageError(f"cannot write {args.output}: {e.strerror or e}") from e
    print(f"wrote {args.output}")
    print(f"chi = {result.complex().euler_characteristic()}")
    print("phi: " + " ".join(f"{g}={v}" for g, v in sorted(
        result.phi.values.items()) if v))
    return EX_OK


def cmd_alex(args):
    from .alex import thurston_bound
    doc = load_document(args.file)
    cx = doc.complex()
    rep = resolve_representation(args.rep, cx.group, args.field)
    phi = resolve_phi(args.phi, doc)
    print(thurston_bound(cx, phi, rep).format(args.deg_only))
    return EX_OK


def cmd_quotients(args):
    doc = load_document(args.file)
    pres = doc.presentation()
    count = 0
    for q in enumerate_quotients(pres, args.max_degree,
                                 transitive_only=args.transitive):
        print(q.describe())
        count += 1
    print(f"total: {count}")
    return EX_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="scx", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        p.add_argument("file", help="path to an .scx file or bundled:NAME")
        return p

    add("check", cmd_check, help="validate a complex and its sutured data")

    p = add("homology", cmd_homology, help="twisted Betti numbers")
    p.add_argument("--rel", default=None, help="subcomplex name, e.g. R-")
    p.add_argument("--rep", default="trivial:1")
    p.add_argument("--field", type=_field, default=None,
                   help="q, f2, f3, f5, ...; default the --rep file's field,"
                        " else q")

    p = add("certify-taut", cmd_certify_taut,
            help="test the trivial representation for a certificate")
    p.add_argument("--max-degree", type=_max_degree, default=4,
                   help="accepted (>= 1) but has no effect")

    p = add("nonproduct", cmd_nonproduct, help="search for a non-product"
            " certificate")
    p.add_argument("--max-degree", type=_max_degree, default=3)
    p.add_argument("--max-regular-dim", type=_max_regular_dim, default=64)

    p = add("bounds", cmd_bounds, help="complexity lower bound")
    p.add_argument("--rep", default="trivial:1")
    p.add_argument("--field", type=_field, default=None)

    p = add("double", cmd_double, help="double along R- and R+")
    p.add_argument("-o", "--output", required=True)

    p = add("alex", cmd_alex, help="twisted orders and the norm bound")
    p.add_argument("--phi", required=True,
                   help="class name from the file or inline:g=1,h=0")
    p.add_argument("--rep", default="trivial:1")
    p.add_argument("--field", type=_field, default=None)
    p.add_argument("--deg-only", action="store_true")

    p = add("quotients", cmd_quotients, help="list finite quotients")
    p.add_argument("--max-degree", type=_max_degree, default=4)
    p.add_argument("--transitive", action="store_true")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EX_USAGE
    try:
        return args.fn(args)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EX_USAGE
    except PreconditionError as e:
        print(f"refused: {e}", file=sys.stderr)
        return EX_FAIL
    except (ParseError, GroupError, ChainError, AlgebraError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EX_DATA


def console_main():
    sys.exit(main())
