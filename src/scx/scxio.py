"""The SCX file format: line-oriented, diff-friendly, hand-authorable.

Grammar (one directive per line, `# ...` comments ignored):

    scx 1
    gen a b x ...
    rel <word>                      words like x*y^-1, the token 1 is identity
    cell <name> dim <0..3>
    bnd <name> = [<int>*<word>*<cell> [+ <int>*<word>*<cell> ...]]
    sub <Name> = cell1 cell2 ...
    meta phi <name> <gen>=<int> ...
    meta <key> <value...>

Every integer is an optional sign and ASCII digits (`groups.parse_int`), and
a word's factors and exponents are never empty and spell out at most
`groups.MAX_WORD_LETTERS` letters (`parse_word`).

A cell has at most one `bnd` line, a subcomplex, phi class or meta key is
given once and a `sub` line names each cell once: a repeat is a ParseError.

Documents round-trip: parse(serialize(doc)) == doc, and serialize emits a
canonical ordering.  Boundary terms are kept exactly as written (including
formally canceling pairs) since they carry incidence data.
"""

from __future__ import annotations

from .chain import EquivariantComplex
from .groups import GroupError, GroupPresentation, parse_int


class ParseError(Exception):
    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        where = f" (line {line}" + (f", column {column})" if column else ")") \
            if line else ""
        super().__init__(message + where)


class ScxDocument:
    """A parsed .scx file; mutable.  == compares every field but
    `meta_lines`, the line each `meta` key was read from, which only
    locates errors in their values."""

    def __init__(self, gens: tuple = (), relators: tuple = (),
                 cells: tuple = (), boundaries: dict | None = None,
                 subs: dict | None = None, metas: dict | None = None,
                 phis: dict | None = None):
        self.gens = gens
        self.relators = relators            # words over gens
        self.cells = cells                  # (name, dim) in declaration order
        self.boundaries = {} if boundaries is None else boundaries
        self.subs = {} if subs is None else subs     # name -> cell names
        self.metas = {} if metas is None else metas  # key -> string value
        self.phis = {} if phis is None else phis     # name -> {gen: int}
        self.meta_lines = {}

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ({**vars(self), "meta_lines": None}
                == {**vars(other), "meta_lines": None})

    def presentation(self) -> GroupPresentation:
        return GroupPresentation(self.gens, self.relators)

    def complex(self) -> EquivariantComplex:
        """Build the equivariant complex, checking d^2 under abelianization.

        The group-ring identity d^2 = 0 is undecidable in general; the
        abelianized check here catches encoding errors cheaply, and every
        later specialization re-verifies d^2 under the representation used.
        """
        cells = {}
        for name, dim in self.cells:
            cells.setdefault(dim, []).append(name)
        cx = EquivariantComplex(self.presentation(), cells, self.boundaries)
        cx.abelian_boundary_check()
        return cx

    def meta_flag(self, key: str) -> bool:
        return _flag(f"meta {key}", self.metas.get(key, "0"),
                     self.meta_lines.get(key))

    def meta_int(self, key: str, default=None):
        return (_int(f"meta {key}", self.metas[key], self.meta_lines.get(key))
                if key in self.metas else default)


def _flag(key, text, line=None) -> bool:
    """A `meta` flag or the rep-file `unitary` line: 0/1, false/true or
    no/yes in any case; any other value, the empty one too, is malformed."""
    word = text.strip().lower()
    if word not in ("0", "1", "false", "true", "no", "yes"):
        raise ParseError(f"{key} must be 0/1, false/true or no/yes,"
                         f" got {text!r}", line)
    return word in ("1", "true", "yes")


def _int(key, text, line=None, low=None) -> int:
    """A `meta` integer or a rep-file size (`low` 1)."""
    try:
        value = parse_int(text)
    except ValueError:
        raise ParseError(f"{key} must be an integer, got {text!r}",
                         line) from None
    if low is not None and value < low:
        raise ParseError(f"{key} must be >= {low}", line)
    return value


def parse_assignments(parts, convert, line=None) -> dict:
    """`name=value` parts (`meta phi`, `--phi inline:`, `perm:` images) as
    {name: convert(value)}; a part without `=`, a repeated name or a value
    `convert` rejects with ValueError is a ParseError at `line`."""
    values = {}
    for part in parts:
        name, eq, text = part.partition("=")
        name = name.strip()
        if not eq:
            raise ParseError(f"expected name=value, got {part!r}", line)
        if name in values:
            raise ParseError(f"{name!r} assigned twice", line)
        try:
            values[name] = convert(text)
        except ValueError:
            raise ParseError(f"bad value {text!r} for {name!r}", line) from None
    return values


def parse_scx(text: str) -> ScxDocument:
    doc = ScxDocument()
    gens: list = []
    relator_texts: list = []
    cells: list = []
    cellnames: set = set()
    bnd_texts: dict = {}
    sub_texts: dict = {}
    phi_lines: dict = {}
    saw_header = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        tokens = line.split()
        kind = tokens[0]
        if kind == "scx":
            if tokens[1:] != ["1"]:
                raise ParseError(f"bad header {line.strip()!r}: only format"
                                 " version 1 ('scx 1') is read", lineno)
            saw_header = True
        elif not saw_header:
            raise ParseError("missing 'scx 1' header line", lineno)
        elif kind == "gen":
            for name in tokens[1:]:
                if name in gens:
                    raise ParseError(f"duplicate generator {name!r}", lineno,
                                     raw.find(name) + 1)
                gens.append(name)
        elif kind == "rel":
            if len(tokens) != 2:
                raise ParseError("rel takes exactly one word", lineno)
            relator_texts.append((tokens[1], lineno))
        elif kind == "cell":
            if len(tokens) != 4 or tokens[2] != "dim":
                raise ParseError("expected 'cell <name> dim <0..3>'", lineno)
            name = tokens[1]
            if name in cellnames:
                raise ParseError(f"duplicate cell {name!r}", lineno)
            try:
                dim = parse_int(tokens[3])
            except ValueError:
                raise ParseError("cell dimension must be an integer", lineno,
                                 raw.find(tokens[3]) + 1) from None
            if not 0 <= dim <= 3:
                raise ParseError(f"cell dimension {dim} outside 0..3", lineno)
            cellnames.add(name)
            cells.append((name, dim))
        elif kind == "bnd":
            if len(tokens) < 3 or tokens[2] != "=":
                raise ParseError("expected 'bnd <name> = <terms>'", lineno)
            if tokens[1] in bnd_texts:
                raise ParseError(f"second boundary for {tokens[1]!r}", lineno)
            bnd_texts[tokens[1]] = (" ".join(tokens[3:]), lineno)
        elif kind == "sub":
            if len(tokens) < 3 or tokens[2] != "=":
                raise ParseError("expected 'sub <name> = cells...'", lineno)
            if tokens[1] in sub_texts:
                raise ParseError(f"subcomplex {tokens[1]!r} declared twice",
                                 lineno)
            members = tuple(tokens[3:])
            if len(set(members)) < len(members):
                twice = next(c for i, c in enumerate(members)
                             if c in members[:i])
                raise ParseError(f"subcomplex {tokens[1]!r} lists cell"
                                 f" {twice!r} twice", lineno)
            sub_texts[tokens[1]] = (members, lineno)
        elif kind == "meta":
            if len(tokens) < 2:
                raise ParseError("meta needs a key", lineno)
            if tokens[1] == "phi":
                if len(tokens) < 3:
                    raise ParseError("meta phi needs a class name", lineno)
                if tokens[2] in doc.phis:
                    raise ParseError(f"phi {tokens[2]!r} given twice", lineno)
                doc.phis[tokens[2]] = parse_assignments(tokens[3:], parse_int,
                                                        lineno)
                phi_lines[tokens[2]] = lineno
            else:
                if tokens[1] in doc.metas:
                    raise ParseError(f"meta {tokens[1]!r} given twice", lineno)
                doc.metas[tokens[1]] = " ".join(tokens[2:])
                doc.meta_lines[tokens[1]] = lineno
        else:
            raise ParseError(f"unknown directive {kind!r}", lineno, 1)
    if not saw_header:
        raise ParseError("empty or truncated document: no 'scx' header", 1)
    doc.gens = tuple(gens)
    for name, values in doc.phis.items():
        for gname in values:
            if gname not in gens:
                raise ParseError(f"phi {name!r} names undeclared generator"
                                 f" {gname!r}", phi_lines[name])
    pres = GroupPresentation(doc.gens, ())
    relators = []
    for wtext, lineno in relator_texts:
        try:
            relators.append(pres.parse_word(wtext))
        except GroupError as e:
            raise ParseError(f"bad relator word: {e}", lineno) from None
    doc.relators = tuple(relators)
    pres = doc.presentation()
    doc.cells = tuple(cells)
    dims = dict(cells)
    for name, (terms_text, lineno) in bnd_texts.items():
        if name not in cellnames:
            raise ParseError(f"boundary for undeclared cell {name!r}", lineno)
        terms = []
        for chunk in terms_text.split("+") if terms_text else ():
            chunk = chunk.strip()
            if not chunk:
                raise ParseError("empty boundary term", lineno)
            pieces = chunk.split("*")
            if len(pieces) < 3:
                raise ParseError(f"boundary term {chunk!r} needs"
                                 " coeff*word*cell", lineno)
            try:
                coeff = parse_int(pieces[0])
            except ValueError:
                raise ParseError(f"bad coefficient {pieces[0]!r}", lineno) from None
            target = pieces[-1]
            if target not in cellnames:
                raise ParseError(f"boundary term hits undeclared cell"
                                 f" {target!r}", lineno)
            if dims[target] != dims[name] - 1:
                raise ParseError(f"dimension mismatch: {name!r} (dim"
                                 f" {dims[name]}) hits {target!r} (dim"
                                 f" {dims[target]})", lineno)
            try:
                word = pres.parse_word("*".join(pieces[1:-1]))
            except GroupError as e:
                raise ParseError(f"bad boundary word: {e}", lineno) from None
            terms.append((coeff, word, target))
        doc.boundaries[name] = tuple(terms)
    for name, (members, lineno) in sub_texts.items():
        for c in members:
            if c not in cellnames:
                raise ParseError(f"subcomplex {name!r} lists undeclared cell"
                                 f" {c!r}", lineno)
        doc.subs[name] = tuple(members)
    return doc


def serialize_scx(doc: ScxDocument) -> str:
    pres = doc.presentation()
    lines = ["scx 1"]
    if doc.gens:
        lines.append("gen " + " ".join(doc.gens))
    for r in doc.relators:
        lines.append("rel " + pres.word_str(r))
    for name, dim in doc.cells:
        lines.append(f"cell {name} dim {dim}")
    for name, dim in doc.cells:
        if name in doc.boundaries:
            terms = " + ".join(f"{c}*{pres.word_str(w)}*{t}"
                               for c, w, t in doc.boundaries[name])
            lines.append(f"bnd {name} = {terms}".rstrip())
    for name, members in doc.subs.items():
        lines.append(f"sub {name} = " + " ".join(members))
    for key, value in doc.metas.items():
        lines.append(f"meta {key} {value}".rstrip())
    for name, values in doc.phis.items():
        assigns = " ".join(f"{g}={v}" for g, v in values.items())
        lines.append(f"meta phi {name} {assigns}".rstrip())
    return "\n".join(lines) + "\n"


class RepDocument:
    """Parsed representation file: trivial / perm / matrix kinds.  The
    `field_tag` is None when the file has no `field` line; `gen_lines` maps
    each generator to its `gen` line, and is empty for an inline spelling."""

    def __init__(self, kind: str, field_tag: str | None = None,
                 unitary_assertion: bool = False):
        self.kind = kind
        self.dim = 1
        self.degree = 0
        self.field_tag = field_tag
        self.perms = {}
        self.matrices = {}
        self.gen_lines = {}
        self.unitary_assertion = unitary_assertion


# the directives each kind reads besides `rep` and `kind`
_REP_DIRECTIVES = {"trivial": ("dim", "field"),
                   "perm": ("degree", "field", "gen"),
                   "matrix": ("dim", "field", "gen", "unitary")}


def parse_rep(text: str) -> RepDocument:
    """Parse a representation file.  The first line is `rep 1`; a directive
    other than `gen` given twice, or one that its kind does not read
    (`_REP_DIRECTIVES`), is a ParseError, not a silent override."""
    first: dict = {}        # directive -> line of its first use
    pending: dict = {}
    kind = dim = degree = field_tag = None
    unitary = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split(None, 1)
        key = tokens[0]
        rest = tokens[1] if len(tokens) > 1 else ""
        if not first and key != "rep":
            raise ParseError("missing 'rep 1' header", lineno)
        if key in first and key != "gen":
            raise ParseError(f"{key!r} given twice", lineno)
        first.setdefault(key, lineno)
        if key == "rep":
            if rest != "1":
                raise ParseError(f"bad header {line!r}: only format version 1"
                                 " ('rep 1') is read", lineno)
        elif key == "kind":
            kind = rest.strip()
            if kind not in _REP_DIRECTIVES:
                raise ParseError(f"unknown representation kind {kind!r}", lineno)
        elif key == "dim":
            dim = _int(key, rest, lineno, low=1)
        elif key == "degree":
            degree = _int(key, rest, lineno, low=1)
        elif key == "field":
            field_tag = rest.strip()
        elif key == "unitary":
            unitary = _flag(key, rest, lineno)
        elif key == "gen":
            name, eq, value = rest.partition("=")
            if not eq:
                raise ParseError("expected 'gen <name> = ...'", lineno)
            name = name.strip()
            if name in pending:
                raise ParseError(f"generator {name!r} assigned twice", lineno)
            pending[name] = (value.strip(), lineno)
        else:
            raise ParseError(f"unknown directive {key!r}", lineno)
    if kind is None:
        raise ParseError("representation file has no kind", 1)
    for key, lineno in first.items():
        if key not in ("rep", "kind") and key not in _REP_DIRECTIVES[kind]:
            raise ParseError(f"{key!r} does not apply to kind {kind}", lineno)
    doc = RepDocument(kind=kind, field_tag=field_tag, unitary_assertion=unitary)
    doc.gen_lines = {name: lineno for name, (_, lineno) in pending.items()}
    if kind == "trivial":
        doc.dim = dim if dim is not None else 1
    elif kind == "perm":
        if degree is None:
            raise ParseError("perm representation needs a degree", 1)
        doc.degree = degree
        doc.perms = {name: value for name, (value, _) in pending.items()}
    else:
        if dim is None:
            raise ParseError("matrix representation needs dim", 1)
        doc.dim = dim
        for name, (value, lineno) in pending.items():
            rows = []
            for rowtext in value.split(";"):
                entries = rowtext.split()
                if len(entries) != dim:
                    raise ParseError(f"matrix row for {name!r} has"
                                     f" {len(entries)} entries, expected {dim}",
                                     lineno)
                rows.append(entries)
            if len(rows) != dim:
                raise ParseError(f"matrix for {name!r} has {len(rows)} rows,"
                                 f" expected {dim}", lineno)
            doc.matrices[name] = rows
    return doc


def inline_rep(spec: str) -> RepDocument:
    """The rep document `trivial:k` (`kind trivial`, `dim k`) or
    `perm:<degree>:x=(..),y=(..)` (`kind perm`, `degree`, `gen`s) spells."""
    kind, _, rest = spec.partition(":")
    doc = RepDocument(kind)
    if kind == "trivial":
        doc.dim = _int("k of trivial:<k>", rest, low=1)
    elif kind == "perm":
        degree, _, images = rest.partition(":")
        doc.degree = _int("degree of perm:<degree>", degree, low=1)
        doc.perms = parse_assignments(_split_assignments(images), str.strip)
    else:
        raise ParseError(f"no inline representation kind {kind!r}")
    return doc


def _split_assignments(text):
    """Split `perm:` images at the commas outside parentheses, so that
    (1,2,3) is one cycle; an empty last part is dropped."""
    parts = []
    for piece in text.split(","):
        if parts and parts[-1].count("(") > parts[-1].count(")"):
            parts[-1] += "," + piece
        else:
            parts.append(piece)
    if not parts[-1]:
        parts.pop()
    return parts
