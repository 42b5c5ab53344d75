"""Seeded inputs and independent expectations for the benchmark workloads.

Nothing here imports `scx`: the inputs and the expected answers are built
from the frozen corpus copies in `inputs/` with plain permutation
arithmetic, so a change to the program cannot change what it is checked
against.

Seed 0 reproduces the corpus file exactly.  Any other seed renames
generators and cells, reorders the generators and subcomplex members, and
replaces some generators by their inverses (an automorphism of the free
group).  None of that changes a verdict or a count, nor the set of matrices a
search over all homomorphisms meets, so it leaves the work unchanged.  The
order of the cells is kept: it fixes the pivot order of the exact
elimination.  With the cells reordered, nonproduct-T1-d4 under one seed took
22.0-22.3 s in three runs against 15-17 s under another (2 vCPUs, Intel
Xeon, Python 3.11).
"""

from __future__ import annotations

import itertools
import json
import math
import random
from pathlib import Path

INPUTS = Path(__file__).resolve().parent / "inputs"


# ---------------------------------------------------------------------------
# .scx relabeling (independent of scx.scxio)


def _split_word(text):
    """'a^-1*b^2' -> [('a', -1), ('b', 2)]; '1' -> []."""
    out = []
    for tok in text.split("*"):
        tok = tok.strip()
        if tok in ("", "1"):
            continue
        name, _, exp = tok.partition("^")
        out.append((name, int(exp) if exp else 1))
    return out


def _join_word(letters):
    if not letters:
        return "1"
    return "*".join(n if e == 1 else f"{n}^{e}" for n, e in letters)


def relabel_scx(text: str, rng: random.Random, invert=True, reorder=True):
    """Rename generators and cells; optionally reorder and invert generators.

    Returns (text, {old generator: new name}, {old generator: +1 or -1}).
    """
    lines = [ln for ln in text.splitlines() if ln.strip()
             and not ln.lstrip().startswith("#")]
    gens = next(ln.split()[1:] for ln in lines if ln.startswith("gen "))
    cells = [ln.split()[1] for ln in lines if ln.startswith("cell ")]
    gen_names = rng.sample(range(100, 1000), len(gens))
    gmap = {g: f"g{k}" for g, k in zip(gens, gen_names)}
    sign = {g: (-1 if invert and rng.random() < 0.5 else 1) for g in gens}
    cell_names = rng.sample(range(100, 1000), len(cells))
    cmap = {c: f"c{k}" for c, k in zip(cells, cell_names)}

    def word(text):
        return _join_word([(gmap[n], e * sign[n]) for n, e in _split_word(text)])

    head, body, bnd_lines, tail = [], [], [], []
    for ln in lines:
        tokens = ln.split()
        kind = tokens[0]
        if kind == "gen":
            new = [gmap[g] for g in gens]
            if reorder:
                rng.shuffle(new)
            head.append("gen " + " ".join(new))
        elif kind == "rel":
            head.append("rel " + word(tokens[1]))
        elif kind == "cell":
            body.append(f"cell {cmap[tokens[1]]} dim {tokens[3]}")
        elif kind == "bnd":
            name, _, rhs = ln[4:].partition("=")
            terms = []
            for term in rhs.split(" + "):
                parts = term.strip().split("*")
                terms.append(f"{parts[0]}*{word('*'.join(parts[1:-1]))}"
                             f"*{cmap[parts[-1]]}")
            bnd_lines.append(f"bnd {cmap[name.strip()]} = " + " + ".join(terms))
        elif kind == "sub":
            name, _, members = ln[4:].partition("=")
            new = [cmap[c] for c in members.split()]
            if reorder:
                rng.shuffle(new)
            tail.append(f"sub {name.strip()} = " + " ".join(new))
        elif kind == "meta" and tokens[1] == "phi":
            values = []
            for assign in tokens[3:]:
                g, _, v = assign.partition("=")
                values.append(f"{gmap[g]}={int(v) * sign[g]}")
            tail.append(f"meta phi {tokens[2]} " + " ".join(values))
        else:
            (head if kind == "scx" else tail).append(ln)
    if reorder:
        rng.shuffle(bnd_lines)
    return "\n".join(head + body + bnd_lines + tail) + "\n", gmap, sign


# ---------------------------------------------------------------------------
# permutations


def perm_mul(a, b):
    """Apply b first, then a (the convention of the .scx tooling)."""
    return tuple(a[i] for i in b)


def perm_inv(a):
    out = [0] * len(a)
    for i, x in enumerate(a):
        out[x] = i
    return tuple(out)


def cycles(a) -> str:
    seen, out = set(), []
    for i in range(len(a)):
        if i in seen or a[i] == i:
            continue
        cyc, j = [i], a[i]
        seen.add(i)
        while j != i:
            cyc.append(j)
            seen.add(j)
            j = a[j]
        out.append("(" + " ".join(str(v + 1) for v in cyc) + ")")
    return "".join(out) or "()"


def shortlex_elements(gens):
    """Group elements in breadth-first order from the identity.

    Conjugate generating tuples give the same order pattern, so the regular
    representation built on it does not depend on which conjugate was picked.
    """
    e = tuple(range(len(gens[0])))
    order, seen, frontier = [e], {e}, [e]
    while frontier:
        nxt = []
        for g in frontier:
            for p in gens:
                h = perm_mul(p, g)
                if h not in seen:
                    seen.add(h)
                    order.append(h)
                    nxt.append(h)
        frontier = nxt
    return order


def trefoil_a5_surjections():
    """All (x, y) in S5 with xyx = yxy generating a group of order 60."""
    out = []
    perms = list(itertools.permutations(range(5)))
    for x in perms:
        for y in perms:
            if perm_mul(perm_mul(x, y), x) == perm_mul(perm_mul(y, x), y) \
                    and len(shortlex_elements([x, y])) == 60:
                out.append((x, y))
    return out


def regular_perm_spec(gen_names, images) -> str:
    """--rep value for the left-regular action on the shortlex order."""
    elems = shortlex_elements(images)
    index = {g: i for i, g in enumerate(elems)}
    parts = []
    for name, p in zip(gen_names, images):
        action = tuple(index[perm_mul(p, g)] for g in elems)
        parts.append(f"{name}={cycles(action)}")
    return f"perm:{len(elems)}:" + ",".join(parts)


# ---------------------------------------------------------------------------
# independent expectations


def homs_free(rank: int, max_degree: int) -> dict:
    """Homomorphisms F_rank -> S_n for 2 <= n <= max_degree: (n!)^rank."""
    return {n: math.factorial(n) ** rank for n in range(2, max_degree + 1)}


def transitive_free(rank: int, max_degree: int) -> dict:
    """Transitive homomorphisms F_rank -> S_n, by Hall's recursion.

    t_n = (n!)^r - sum_{k<n} C(n-1, k-1) t_k ((n-k)!)^r: every action splits
    into the orbit of the first point (size k) and the rest.
    """
    t = {}
    for n in range(1, max_degree + 1):
        t[n] = math.factorial(n) ** rank - sum(
            math.comb(n - 1, k - 1) * t[k] * math.factorial(n - k) ** rank
            for k in range(1, n))
    return {n: t[n] for n in range(2, max_degree + 1)}


def _transitive(images, n):
    reach, frontier = {0}, [0]
    while frontier:
        nxt = []
        for x in frontier:
            for p in images:
                for y in (p[x], perm_inv(p)[x]):
                    if y not in reach:
                        reach.add(y)
                        nxt.append(y)
        frontier = nxt
    return len(reach) == n


def conjugacy_classes_free(rank: int, max_degree: int) -> dict:
    """Classes of homomorphisms F_rank -> S_n under simultaneous conjugation.

    Brute force: walk every homomorphism and mark the orbit of each one not
    yet seen.  Returns homs, classes and transitive classes, summed over
    2 <= n <= max_degree.
    """
    homs = classes = transitive = 0
    for n in range(2, max_degree + 1):
        perms = list(itertools.permutations(range(n)))
        conj = [(c, perm_inv(c)) for c in perms]
        seen = set()
        for images in itertools.product(perms, repeat=rank):
            homs += 1
            if images in seen:
                continue
            classes += 1
            transitive += _transitive(images, n)
            for c, ci in conj:
                seen.add(tuple(perm_mul(perm_mul(c, p), ci) for p in images))
    return {"homs": homs, "classes": classes,
            "transitive_classes": transitive}


# ---------------------------------------------------------------------------
# workloads


def product_input(base: str, seed: int) -> str:
    text = (INPUTS / base).read_text()
    if seed == 0:
        return text
    rng = random.Random(f"{base}:{seed}")
    return relabel_scx(text, rng)[0]


def alex_input(seed: int):
    """(scx text, --rep value) for the trefoil under a regular A5 action."""
    text = (INPUTS / "trefoil.scx").read_text()
    quotients = trefoil_a5_surjections()
    images = quotients[seed % len(quotients)]
    names = ["x", "y"]
    if seed != 0:
        rng = random.Random(f"trefoil.scx:{seed}")
        text, gmap, _ = relabel_scx(text, rng, invert=False, reorder=False)
        names = [gmap[g] for g in names]
    return text, regular_perm_spec(names, images)


def check_enumeration_records() -> int:
    """Recompute the conjugacy-class records of workloads.json; 0 if equal."""
    spec = json.loads((INPUTS.parent / "workloads.json").read_text())
    status = 0
    for name, w in spec["workloads"].items():
        if "enumeration" not in w:
            continue
        got = conjugacy_classes_free(w["free_rank"], w["max_degree"])
        same = got == w["enumeration"]
        status |= not same
        print(f"{name}: {got} {'matches' if same else 'differs from'} the"
              f" record {w['enumeration']}")
    return status


if __name__ == "__main__":
    raise SystemExit(check_enumeration_records())
