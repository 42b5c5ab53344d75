"""Builders for the bundled complexes and the constructions behind them.

The lifting rule is centralized in `attach_terms`: a 2-cell attached along a
sequence of oriented 1-cells gets the boundary terms of the lifted loop, read
off the boundaries of those 1-cells, and the consistency requirement is that
the path-ordered product of the edge holonomies dies in the group.  Every
builder attaches its 2-cells through `_attach`, which also checks that
closure.  `interval_product` builds X x [-1,1] complexes (product sutured
models), and the hand-built solid-torus / ball models carry their 3-cells,
closed with exact formal arithmetic over the free group.
"""

from __future__ import annotations

from .chain import ChainError, edge_ends
from .groups import word_inv, word_mul
from .scxio import ScxDocument


def attach_terms(boundaries, steps):
    """Boundary terms of a 2-cell attached along `steps`.

    `boundaries` maps each 1-cell name to its boundary terms, whose ends
    (head, w_head, tail, w_tail) `chain.edge_ends` reads; `steps` is a list
    of (edge name, +1/-1) in traversal order.  Returns (terms, closure):
    the closure word is the edge-holonomy product in reverse traversal order
    (the lift bookkeeping runs right to left) and must map to the identity
    under any representation later applied.

    For an attaching loop based at a single vertex, feeding the letter
    sequence reversed (signs kept) makes the closure the path-ordered word
    itself; `relator_steps` does exactly that.
    """
    terms = []
    p = ()
    for name, sign in steps:
        head, wh, tail, wt = edge_ends(name, boundaries[name])
        if sign > 0:
            u = word_mul(word_inv(wt), p)
            terms.append((1, u, name))
            p = word_mul(wh, u)
        else:
            u = word_mul(word_inv(wh), p)
            terms.append((-1, u, name))
            p = word_mul(wt, u)
    return terms, p


def _attach(cells, boundaries, name, steps, closure=()):
    """Append the 2-cell `name` attached along `steps` to `cells` and
    `boundaries`, after checking that its loop closes to `closure`."""
    terms, got = attach_terms(boundaries, steps)
    if got != closure:
        raise ChainError(f"2-cell {name} does not close")
    cells.append((name, 2))
    boundaries[name] = tuple(terms)


def relator_steps(gen_names, relator):
    """Step sequence for a relator cell at a wedge point: reversed letters."""
    return [(gen_names[abs(k) - 1], 1 if k > 0 else -1)
            for k in reversed(relator)]


# -- formal chains over the group ring (free/trivial groups only) ------------


def formal_boundary(boundaries, chain):
    """d of a formal chain {(word, cell): coeff}; exact for free groups."""
    out = {}
    for (w, cell), coeff in chain.items():
        for c, word, target in boundaries[cell]:
            key = (word_mul(word, w), target)
            out[key] = out.get(key, 0) + c * coeff
            if out[key] == 0:
                del out[key]
    return out


def _close_three_cell(boundaries, band_cells, disk_cell):
    """Terms of a 3-cell whose boundary is the bands plus disk translates."""
    chain = {((), name): 1 for name in band_cells}
    residual = formal_boundary(boundaries, chain)
    disk_terms = boundaries[disk_cell]
    if len(disk_terms) != 1 or disk_terms[0][0] != 1:
        raise ChainError("closing disk must have a single +1 boundary term")
    _, u, target = disk_terms[0]
    for (w, cell), coeff in sorted(residual.items()):
        if cell != target:
            raise ChainError("band residual does not lie on the disk circle")
        v = word_mul(word_inv(u), w)
        chain[(v, disk_cell)] = chain.get((v, disk_cell), 0) - coeff
    if formal_boundary(boundaries, chain):
        raise ChainError("3-cell closure failed")
    return [(coeff, w, cell) for (w, cell), coeff in chain.items()]


# ---------------------------------------------------------------------------
# generic builders


def presentation_complex(gen_names, relator_texts, phi=None) -> ScxDocument:
    """One vertex, one edge per generator, one 2-cell per relator; `phi`,
    if given, is declared as the class `ab`.  With no relators this is a
    wedge of circles."""
    doc = ScxDocument()
    doc.gens = tuple(gen_names)
    pres = doc.presentation()
    relators = tuple(pres.parse_word(t) for t in relator_texts)
    doc.relators = relators
    cells = [("v", 0)]
    boundaries = {}
    for i, g in enumerate(gen_names, start=1):
        cells.append((g, 1))
        boundaries[g] = ((1, (i,), "v"), (-1, (), "v"))
    for j, r in enumerate(relators, start=1):
        name = f"R{j}" if len(relators) > 1 else "R"
        _attach(cells, boundaries, name, relator_steps(gen_names, r), r)
    doc.cells = tuple(cells)
    doc.boundaries = boundaries
    if phi is not None:
        doc.phis["ab"] = dict(phi)
    return doc


def interval_product(base: ScxDocument, subs=True) -> ScxDocument:
    """The product with an interval: cells cm, cp and the prism cI per cell c.

    d(c x I) = (dc) x I + (-1)^dim (c_top - c_bottom).  Bottom cells form the
    R- subcomplex and top cells R+ when `subs` is set.
    """
    doc = ScxDocument()
    doc.gens = base.gens
    doc.relators = base.relators
    cells = []
    boundaries = {}
    for name, dim in base.cells:
        if dim + 1 > 3:
            raise ChainError("interval product would exceed dimension 3")
        cells.append((name + "m", dim))
        cells.append((name + "p", dim))
        cells.append((name + "I", dim + 1))
        if dim >= 1:
            for side in ("m", "p"):
                boundaries[name + side] = tuple(
                    (c, w, t + side) for c, w, t in base.boundaries[name])
        sign = 1 if dim % 2 == 0 else -1
        prism = [(c, w, t + "I") for c, w, t in base.boundaries.get(name, ())]
        prism.append((sign, (), name + "p"))
        prism.append((-sign, (), name + "m"))
        boundaries[name + "I"] = tuple(prism)
    doc.cells = tuple(sorted(cells, key=lambda cd: (cd[1], cd[0])))
    doc.boundaries = boundaries
    if subs:
        doc.subs["R-"] = tuple(n + "m" for n, d in base.cells)
        doc.subs["R+"] = tuple(n + "p" for n, d in base.cells)
    return doc


# ---------------------------------------------------------------------------
# the bundled corpus


def product_disk() -> ScxDocument:
    doc = interval_product(presentation_complex((), []))
    doc.metas.update({
        "name": "product_D2",
        "witnesses": "product sutured manifold over a disk: vanishing pair"
                     " homology for every representation; excluded ball case",
        "sutures": "1", "irreducible": "1", "excluded_s1xd2": "0",
        "excluded_d3": "1", "manifold3": "1",
        "chi_rminus": "1", "chi_rplus": "1",
        "orientation": "R- at the bottom of the product",
    })
    return doc


def product_annulus() -> ScxDocument:
    doc = interval_product(presentation_complex(("a",), []))
    doc.metas.update({
        "name": "product_A1",
        "witnesses": "product sutured manifold over an annulus: vanishing pair"
                     " homology; excluded solid-torus case with longitudinal"
                     " sutures",
        "sutures": "2", "irreducible": "1", "excluded_s1xd2": "1",
        "excluded_d3": "0", "manifold3": "1",
        "chi_rminus": "0", "chi_rplus": "0",
        "orientation": "R- at the bottom of the product",
    })
    return doc


def product_punctured_torus() -> ScxDocument:
    doc = interval_product(presentation_complex(("a", "b"), []))
    doc.metas.update({
        "name": "product_T1",
        "witnesses": "product sutured manifold over a once-punctured torus:"
                     " certified taut by the trivial representation, pair"
                     " homology vanishes for every representation",
        "sutures": "1", "irreducible": "1", "excluded_s1xd2": "0",
        "excluded_d3": "0", "manifold3": "1",
        "chi_rminus": "-1", "chi_rplus": "-1",
        "orientation": "R- at the bottom of the product",
    })
    return doc


def meridional_solidtorus() -> ScxDocument:
    """Solid torus with two meridional sutures: torus banded by six meridian
    circles (R- band, suture circle, R+ band, suture circle), a meridian disk
    and the complementary 3-cell."""
    doc = ScxDocument(gens=("x",))
    verts = ["v1", "v2", "w1", "v3", "v4", "w2"]
    merids = {"m1": "v1", "m2": "v2", "n1": "w1", "m3": "v3", "m4": "v4",
              "n2": "w2"}
    arcs = [("l1", "v1", "v2", ()), ("g1a", "v2", "w1", ()),
            ("g1b", "w1", "v3", ()), ("l3", "v3", "v4", ()),
            ("g2a", "v4", "w2", ()), ("g2b", "w2", "v1", (1,))]
    cells = [(v, 0) for v in verts]
    boundaries = {}
    for m, v in merids.items():
        cells.append((m, 1))
        boundaries[m] = ((1, (), v), (-1, (), v))
    for name, tail, head, hol in arcs:
        cells.append((name, 1))
        boundaries[name] = ((1, hol, head), (-1, (), tail))
    bands = [("F1", "m1", "l1", "m2"), ("G1", "m2", "g1a", "n1"),
             ("G2", "n1", "g1b", "m3"), ("F3", "m3", "l3", "m4"),
             ("G3", "m4", "g2a", "n2"), ("G4", "n2", "g2b", "m1")]
    for name, bottom, arc, top in bands:
        _attach(cells, boundaries, name,
                [(bottom, 1), (arc, 1), (top, -1), (arc, -1)])
    _attach(cells, boundaries, "D", [("m1", 1)])
    cells.append(("B", 3))
    boundaries["B"] = tuple(_close_three_cell(
        boundaries, [b[0] for b in bands], "D"))
    doc.cells = tuple(cells)
    doc.boundaries = boundaries
    doc.subs["R-"] = ("v1", "v2", "m1", "m2", "l1", "F1")
    doc.subs["R+"] = ("v3", "v4", "m3", "m4", "l3", "F3")
    doc.subs["gamma"] = ("w1", "n1", "w2", "n2")
    doc.subs["Yplus"] = tuple(n for n, d in doc.cells
                              if n not in ("l1", "F1", "D", "B"))
    doc.metas.update({
        "name": "meridional_solidtorus",
        "witnesses": "solid torus with two meridional sutures: no"
                     " representation kills the pair homology (b1 = k always);"
                     " duality model",
        "sutures": "2", "irreducible": "1", "excluded_s1xd2": "1",
        "excluded_d3": "0", "manifold3": "1",
        "chi_rminus": "0", "chi_rplus": "0",
        "orientation": "suture circles gamma between the R bands",
    })
    return doc


def slope2_solidtorus() -> ScxDocument:
    """Solid torus whose sutures (and R+/- cores) are slope-2 curves."""
    doc = ScxDocument(gens=("x",))
    cells = [("p", 0), ("q", 0), ("q2", 0)]
    boundaries = {
        "e": ((1, (), "p"), (-1, (), "q")),
        "d": ((1, (), "q2"), (-1, (), "q")),
        "x": ((1, (1,), "p"), (-1, (), "p")),
        "m": ((1, (1, 1), "q"), (-1, (), "q")),
        "m2": ((1, (1, 1), "q2"), (-1, (), "q2")),
    }
    cells += [(e, 1) for e in ("e", "d", "x", "m", "m2")]
    _attach(cells, boundaries, "D",
            [("e", -1), ("m", 1), ("e", 1), ("x", -1), ("x", -1)])
    _attach(cells, boundaries, "F",
            [("m", 1), ("d", 1), ("m2", -1), ("d", -1)])
    doc.cells = tuple(cells)
    doc.boundaries = boundaries
    doc.subs["R-"] = ("q", "m")
    doc.subs["R+"] = ("q2", "m2")
    doc.metas.update({
        "name": "slope2_solidtorus",
        "witnesses": "sutured solid torus with slope-2 sutures: trivial"
                     " rational homology vanishes yet the index test and the"
                     " regular representation of the degree-2 quotient certify"
                     " it is not a product; integral pair H1 is Z/2",
        "sutures": "2", "irreducible": "1", "excluded_s1xd2": "0",
        "excluded_d3": "0", "manifold3": "0",
        "chi_rminus": "0", "chi_rplus": "0",
        "orientation": "R core curves isotopic to the sutures",
    })
    return doc


def d3_two_sutures() -> ScxDocument:
    """A 3-ball with two sutures on its boundary sphere: R+ is two disks,
    R- the annulus between them; deliberately unbalanced."""
    doc = ScxDocument(gens=())
    verts = ["w1a", "w1b", "w2a", "w2b"]
    cells = [(v, 0) for v in verts]
    boundaries = {}
    for n, v in [("n1a", "w1a"), ("n1b", "w1b"), ("n2a", "w2a"),
                 ("n2b", "w2b")]:
        cells.append((n, 1))
        boundaries[n] = ((1, (), v), (-1, (), v))
    for name, tail, head in [("c1", "w1a", "w1b"), ("c", "w1b", "w2b"),
                             ("c2", "w2a", "w2b")]:
        cells.append((name, 1))
        boundaries[name] = ((1, (), head), (-1, (), tail))
    for name, steps in [
            ("D1", [("n1a", 1)]),
            ("D2", [("n2a", 1)]),
            ("G1", [("n1a", 1), ("c1", 1), ("n1b", -1), ("c1", -1)]),
            ("A", [("n1b", 1), ("c", 1), ("n2b", -1), ("c", -1)]),
            ("G2", [("n2a", 1), ("c2", 1), ("n2b", -1), ("c2", -1)])]:
        _attach(cells, boundaries, name, steps)
    chain = {((), "D1"): 1, ((), "G1"): -1, ((), "A"): -1, ((), "G2"): 1,
             ((), "D2"): -1}
    if formal_boundary(boundaries, chain):
        raise ChainError("ball 3-cell does not close")
    cells.append(("B", 3))
    boundaries["B"] = tuple((c, w, cell) for (w, cell), c in chain.items())
    doc.cells = tuple(cells)
    doc.boundaries = boundaries
    doc.subs["R-"] = ("w1b", "w2b", "n1b", "n2b", "c", "A")
    doc.subs["R+"] = ("w1a", "n1a", "D1", "w2a", "n2a", "D2")
    doc.metas.update({
        "name": "d3_two_sutures",
        "witnesses": "ball with two sutures: unbalanced (disks against an"
                     " annulus), certification refused; pair homology against"
                     " the disks never vanishes",
        "sutures": "2", "irreducible": "1", "excluded_s1xd2": "0",
        "excluded_d3": "1", "manifold3": "1",
        "chi_rminus": "0", "chi_rplus": "2",
        "orientation": "two disks positive, annulus negative",
    })
    return doc


def trefoil() -> ScxDocument:
    doc = presentation_complex(
        ("x", "y"), ["x*y*x*y^-1*x^-1*y^-1"], phi={"x": 1, "y": 1})
    doc.metas.update({
        "name": "trefoil",
        "witnesses": "trefoil group complex: twisted orders t-1, t^2-t+1, 1"
                     " give the sharp genus bound 1",
        "manifold3": "0",
    })
    return doc


def figure8() -> ScxDocument:
    doc = presentation_complex(
        ("x", "y"), ["x*y^-1*x^-1*y*x*y^-1*x*y*x^-1*y^-1"],
        phi={"x": 1, "y": 1})
    doc.metas.update({
        "name": "figure8",
        "witnesses": "figure-eight group complex: first order t^2-3t+1, genus"
                     " bound 1",
        "manifold3": "0",
    })
    return doc


def trefoil_fibered() -> ScxDocument:
    """Mapping torus of the punctured torus under a monodromy with
    characteristic polynomial t^2 - t + 1."""
    doc = ScxDocument(gens=("a", "b", "t"))
    pres0 = doc.presentation()
    rels = (pres0.parse_word("a*t*b^-1*t^-1"),
            pres0.parse_word("b*t*a*b^-1*t^-1"))
    doc.relators = rels
    cells = [("v", 0), ("a", 1), ("b", 1), ("T", 1)]
    boundaries = {
        "a": ((1, (1,), "v"), (-1, (), "v")),
        "b": ((1, (2,), "v"), (-1, (), "v")),
        "T": ((1, (3,), "v"), (-1, (), "v")),
    }
    gen_names = ("a", "b", "t")
    edge_of_gen = {"a": "a", "b": "b", "t": "T"}
    for name, rel in (("A2", rels[0]), ("B2", rels[1])):
        steps = [(edge_of_gen[g], s) for g, s in relator_steps(gen_names, rel)]
        _attach(cells, boundaries, name, steps, rel)
    doc.cells = tuple(cells)
    doc.boundaries = boundaries
    doc.phis["dual"] = {"a": 0, "b": 0, "t": 1}
    doc.metas.update({
        "name": "trefoil_fibered",
        "witnesses": "fibered mapping-torus model: the determinant form"
                     " det(left - t*right) on the fiber homology matches the"
                     " first twisted order",
        "manifold3": "0",
    })
    return doc


def fibered_cut():
    """Cut data for the fibered model: the fiber, X- = fiber x I, the two
    inclusions (the right one twisted by the monodromy) and the stable
    letter t of the glued group, as a word."""
    from .chain import CellMap
    fiber = presentation_complex(("a", "b"), [])
    xminus_doc = interval_product(fiber, subs=False)
    fcx = fiber.complex()
    xcx = xminus_doc.complex()
    iota_l = CellMap(
        fcx, xcx, ((1,), (2,)),
        {"v": ((1, (), "vm"),), "a": ((1, (), "am"),), "b": ((1, (), "bm"),)})
    mono = ((2,), (2, -1))      # a -> b, b -> b a^-1
    # a and b go to the loops on the top edges that spell their monodromy
    # words, lifted by the relator rule
    a_top, b_top = (tuple(attach_terms(xminus_doc.boundaries,
                                       relator_steps(("ap", "bp"), w))[0])
                    for w in mono)
    iota_r = CellMap(fcx, xcx, mono,
                     {"v": ((1, (), "vp"),), "a": a_top, "b": b_top})
    return {"w_doc": trefoil_fibered(), "fiber": fcx, "xminus": xcx,
            "iota_l": iota_l, "iota_r": iota_r,
            "x_in_w": ((1,), (2,)), "stable": (3,)}


BUILDERS = {
    "product_D2": product_disk,
    "product_A1": product_annulus,
    "product_T1": product_punctured_torus,
    "meridional_solidtorus": meridional_solidtorus,
    "slope2_solidtorus": slope2_solidtorus,
    "d3_two_sutures": d3_two_sutures,
    "trefoil": trefoil,
    "figure8": figure8,
    "trefoil_fibered": trefoil_fibered,
}


def write_bundled(directory):
    """Regenerate the bundled .scx corpus (development helper)."""
    import pathlib

    from .scxio import serialize_scx
    out = pathlib.Path(directory)
    out.mkdir(parents=True, exist_ok=True)
    for name, build in BUILDERS.items():
        doc = build()
        header = (f"# {name}: " + doc.metas.get("witnesses", "") + "\n")
        (out / f"{name}.scx").write_text(header + serialize_scx(doc))


if __name__ == "__main__":
    import pathlib
    import sys

    target = sys.argv[1] if len(sys.argv) > 1 else \
        pathlib.Path(__file__).parent / "data"
    write_bundled(target)
    print(f"wrote corpus to {target}")
