"""Exhaustive generation and isomorphism classification of small bipartite
digraphs, plus the aggregated verification report.

``orientations_of`` walks the 3^m direction assignments over a fixed
undirected template and feeds ``classify_qbmgs``, which canonicalizes every
recognized graph (used for the template counts and ``verify``).
``run_mask_sweep`` walks every per-pair edge state of one coloring over
reused bitmasks on the shared odometer ``_edge_states``, without building
or testing graphs.  ``classify_all_qbmgs`` grows its graphs vertex by vertex
and never meets a graph that fails: each new vertex takes only the rows
that ``_admissible_rows`` derives for its recognized prefix, so it meets
exactly the recognized edge sets of each coloring it walks.  Its output
does not depend on the order of that walk.
Recognition is invariant under relabeling, so it walks one sorted coloring
``(0,)*k + (1,)*(n-k)`` per color-class size k >= n/2 and weights each
recognized edge set by the number of colorings with those class sizes,
complements included.  It runs one canonical search per isomorphism class:
the ordering that search finds gives the class representative, and the
members of the class that a later walked coloring can still fit are marked
seen, through the relabelings that keep that coloring's classes in place.
``all_bipartite_digraphs`` yields the same labeled graphs as ``Digraph``
values for small-n checks and as the reference that tests compare
``classify_all_qbmgs`` against.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import permutations, product
from math import comb
from typing import Callable, Iterable, Iterator, Sequence

from . import fixtures
from .axioms import _admissible_rows, is_qbmg, is_qbmg_masks
from .digraph import (
    CANONICAL_MAX_VERTICES,
    CanonicalForm,
    Digraph,
    UGraph,
    _component_masks,
    _edge_states,
    _inverse,
    _pack_levels,
    _reorder,
    _state_digraphs,
    _trusted_digraph,
    build_ugraph,
    canonical_form,
    canonical_order,
    default_names,
    identity_levels,
    induced_subdigraph,
    iter_bits,
)
from .errors import TooLarge
from .orientation import ORIENT_MAX_PAIRS

ENUM_MAX_VERTICES = 6


def path_template(k: int) -> UGraph:
    """Chordless path v1-...-vk with alternating colors (v1 gets color 1).
    Raises ``TooLarge`` for more vertices than ``orientations_of`` takes."""
    if k > CANONICAL_MAX_VERTICES:
        raise TooLarge(f"templates support at most {CANONICAL_MAX_VERTICES} vertices")
    colors = tuple((i + 1) % 2 for i in range(k))
    return build_ugraph(k, colors, [(i, i + 1) for i in range(k - 1)])


def cycle_template(k: int) -> UGraph:
    """The path template closed into a chordless k-cycle (k even)."""
    if k % 2:
        raise ValueError("bipartite cycles need even length")
    path = path_template(k)
    return build_ugraph(k, path.colors, [*path.edges, (0, k - 1)])


def orientations_of(g: UGraph) -> Iterator[Digraph]:
    """All 3^m digraphs whose underlying graph equals g: each undirected edge
    takes state forward, backward or both, in deterministic order.

    Raises ``TooLarge`` before the first orientation when g has more than
    ``CANONICAL_MAX_VERTICES`` vertices, beyond which its orientations could
    not be classified anyway, or when its 3^m orientations exceed the
    2^``ORIENT_MAX_PAIRS`` that ``all_orientations`` walks at most."""
    if g.n > CANONICAL_MAX_VERTICES:
        raise TooLarge(f"orientation enumeration supports at most {CANONICAL_MAX_VERTICES} vertices")
    edges = g.sorted_edges()
    if 3 ** len(edges) > 2 ** ORIENT_MAX_PAIRS:
        raise TooLarge(f"orientation enumeration supports at most 2^{ORIENT_MAX_PAIRS} orientations")
    # forward, backward, both: edge states 1-3 of ``_state_digraphs``
    yield from _state_digraphs(g.colors, g.names, edges, (1, 2, 3))


def opposite_pairs(colors: Sequence[int]) -> list[tuple[int, int]]:
    """Opposite-color pairs (u, v), u < v, grouped by their larger vertex v
    in increasing order."""
    n = len(colors)
    return [(u, v) for v in range(1, n) for u in range(v) if colors[u] != colors[v]]


def all_bipartite_digraphs(n: int) -> Iterator[Digraph]:
    """Every coloring (2^n) times every per-opposite-pair edge state (4 each).

    No deduplication: the same edge set can appear under several colorings.
    """
    if n > ENUM_MAX_VERTICES:
        raise TooLarge(f"unconstrained enumeration supports at most {ENUM_MAX_VERTICES} vertices")
    names = default_names(n)
    for colors in product((0, 1), repeat=n):
        yield from _state_digraphs(colors, names, opposite_pairs(colors), range(4))


def run_mask_sweep(colors: Sequence[int], visit: Callable[[list[int], list[int]], None]) -> int:
    """Drive ``visit(out_masks, in_masks)`` over every edge-state assignment
    for the given coloring; masks are reused in place between calls.  Returns
    the number of graphs visited.  The pairs of ``opposite_pairs`` each take
    the states none, forward, both and backward on the odometer of
    ``_edge_states``, the last pair fastest.
    """
    count = 0
    for out, inn in _edge_states(len(colors), opposite_pairs(colors), (0, 1, 3, 2)):
        visit(out, inn)
        count += 1
    return count


def halved_colorings(n: int) -> Iterator[tuple[int, ...]]:
    """One coloring per complement pair (vertex 0 fixed to color 0); swapping
    colors yields the identical digraph family, so sweeps over these cover
    every bipartite edge set on n labeled vertices.  The empty coloring is
    its own complement and is yielded once."""
    if n == 0:
        yield ()
        return
    for rest in product((0, 1), repeat=n - 1):
        yield (0, *rest)


@dataclass(frozen=True)
class ClassificationResult:
    """Isomorphism classes among the filtered graphs.

    ``classes`` pairs each canonical form with a witness member (the member
    whose own vertex order encodes minimally); ``total_filtered`` counts all
    graphs that passed the filter.
    """

    classes: tuple[tuple[CanonicalForm, Digraph], ...]
    total_filtered: int

    @property
    def count(self) -> int:
        return len(self.classes)

    def codes(self) -> frozenset[bytes]:
        return frozenset(form.code for form, _ in self.classes)


def classify_qbmgs(graphs: Iterable[Digraph]) -> ClassificationResult:
    """Filter to recognized graphs and bucket them by canonical form."""
    buckets: dict[bytes, Digraph] = {}
    total = 0
    for g in graphs:
        if not is_qbmg_masks(g.n, g.out_masks, g.in_masks):
            continue
        total += 1
        code = canonical_form(g).code
        prev = buckets.get(code)
        if prev is None or identity_levels(g) < identity_levels(prev):
            buckets[code] = g
    classes = tuple(
        (CanonicalForm(code), buckets[code]) for code in sorted(buckets)
    )
    return ClassificationResult(classes, total)


def classify_all_qbmgs(n: int) -> ClassificationResult:
    """The classification of ``classify_qbmgs(all_bipartite_digraphs(n))``,
    with one canonical form per class instead of one per recognized graph.

    Only the sorted colorings ``(0,)*k + (1,)*(n-k)`` for k from n down to
    ceil(n/2) are walked, vertex by vertex over the admissible rows of each
    new vertex (``_recognized_edge_sets``), so only recognized edge sets
    are met.

    ``total_filtered`` counts recognized (coloring, edge set) pairs over all
    2^n colorings, as the reference does.  Any coloring with k zeros is a
    relabeling of the sorted one, and relabeling maps its recognized edge
    sets one to one onto theirs; a coloring and its complement have the
    same opposite-color pairs.  So each recognized edge
    set of the sorted coloring with k zeros adds ``comb(n, k)``, doubled
    unless 2k = n (the complement then has the same class sizes and is
    counted among the ``comb(n, k)``).  For n = 0 the single empty coloring
    adds 1.

    The first recognized edge set E of a class gets one canonical search
    (``canonical_order``), and the members the rest of the walk can still
    reach are then marked seen, so a later visit to one costs a set lookup.
    The walk meets a member E' = phi(E) only under a walked coloring c_j
    with j zeros that E' fits, and then c_j composed with phi is a valid
    2-coloring chi of E with j zeros.  The valid colorings of E are the
    2^c flips of the walked coloring over E's c components (isolated vertices
    included).  Let pi_chi map chi's zeros in increasing order onto 0..j-1
    and its ones onto j..n-1; c_j composed with pi_chi is chi as well, so
    sigma = phi composed with the inverse of pi_chi maps 0..j-1 onto itself.
    So the marks are the images of pi_chi(E), for each flip chi with
    j >= n/2 zeros, under the j!(n-j)! relabelings that keep 0..j-1 in
    place as a set.  A connected class needs one flip, or two when 2k = n;
    the n! relabelings of E would mark graphs no walked coloring fits.  Two
    flips with the same zero count and the same pi_chi(E) mark the same
    images, so only the first of them marks.

    Every class has a member in some sorted coloring.  The witness is the
    edge set relabeled by the ordering that search returns, so it does not
    depend on which member was found first.  Its identity levels are the
    canonical levels, the least over the orbit, and border levels determine
    the edge set, so it is the orbit member with the least identity levels,
    which the reference keeps.  It takes the walked coloring, relabeled,
    with every component flipped so that its least vertex has color 0: the
    least valid coloring, which the reference meets first and keeps on ties.
    """
    if n > ENUM_MAX_VERTICES:
        raise TooLarge(f"unconstrained enumeration supports at most {ENUM_MAX_VERTICES} vertices")
    names = default_names(n)
    everyone = (1 << n) - 1
    # per zero count j: each vertex permutation mapping 0..j-1 onto itself,
    # as its inverse with the image of every vertex bitmask under it
    fixing: dict[int, list[tuple[list[int], list[int]]]] = {}
    for j in range(n, (n - 1) // 2, -1):
        fixing[j] = []
        for low_part, high_part in product(permutations(range(j)), permutations(range(j, n))):
            perm = low_part + high_part
            # doubling: image[mask | 1 << v] is image[mask] | 1 << perm[v] for mask < 1 << v
            image = [0]
            for w in perm:
                bit = 1 << w
                image += [mask | bit for mask in image]
            fixing[j].append((_inverse(perm), image))
    seen: set[tuple[int, ...]] = set()
    classes: dict[bytes, tuple[CanonicalForm, Digraph]] = {}
    total = 0
    for k in range(n, (n - 1) // 2, -1):
        weight = comb(n, k) * (1 if 2 * k == n else 2)
        colors = (0,) * k + (1,) * (n - k)
        ones = everyone & -(1 << k)
        for out in _recognized_edge_sets(colors):
            total += weight
            if out in seen:
                continue
            inn = [0] * n
            for u, mask in enumerate(out):
                for v in iter_bits(mask):
                    inn[v] |= 1 << u
            comps = _component_masks([o | i for o, i in zip(out, inn)], everyone)
            marked = set()
            for flips in product((0, 1), repeat=len(comps)):
                # chi: the mask of color-1 vertices once the chosen components flip
                chi = ones ^ sum(comp for flip, comp in zip(flips, comps) if flip)
                zeros = n - chi.bit_count()
                if 2 * zeros < n:
                    continue
                # pi_chi: chi's zeros, then its ones, each in increasing order
                moved = _reorder(out, [*iter_bits(everyone & ~chi), *iter_bits(chi)])
                if (zeros, *moved) in marked:
                    continue  # an earlier flip marked the same images
                marked.add((zeros, *moved))
                # moved relabeled by perm: row perm[v] is image[moved[v]]
                seen.update(tuple([image[moved[v]] for v in inverse]) for inverse, image in fixing[zeros])
            levels, order = canonical_order(n, out, inn)
            position = _inverse(order)
            recolored = [0] * n
            for comp in comps:
                flip = colors[min(iter_bits(comp), key=position.__getitem__)]
                for v in iter_bits(comp):
                    recolored[position[v]] = colors[v] ^ flip
            rep = _trusted_digraph(n, tuple(recolored), names, _reorder(out, order), _reorder(inn, order))
            code = _pack_levels(n, levels)
            classes[code] = (CanonicalForm(code), rep)
    return ClassificationResult(tuple(classes[code] for code in sorted(classes)), total)


def _recognized_edge_sets(colors: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """Yield the out-masks of every recognized edge set of the coloring,
    once each.  The graph grows vertex by vertex, and each new vertex takes
    only the rows ``_admissible_rows`` derives for its prefix.  That prefix
    is recognized, as the derivation requires: it is empty or was itself
    grown by an admissible row."""
    n = len(colors)
    if not n:
        yield ()
        return
    opposite = [sum(1 << u for u in range(x) if colors[u] != colors[x]) for x in range(n)]
    stack: list[tuple[tuple[int, ...], tuple[int, ...]]] = [((), ())]
    while stack:
        out, inn = stack.pop()
        x = len(out)
        bit = 1 << x
        for i, outs in _admissible_rows(x, opposite[x], out, inn):
            head = tuple([m | bit if i >> u & 1 else m for u, m in enumerate(out)])
            if x == n - 1:  # a complete graph needs no in-masks
                for o in outs:
                    yield head + (o,)
            else:
                stack += [(head + (o,), tuple([m | bit if o >> w & 1 else m for w, m in enumerate(inn)]) + (i,))
                          for o in outs]


@dataclass(frozen=True)
class TheoremCheck:
    name: str
    passed: bool
    details: str


@dataclass(frozen=True)
class VerifyReport:
    checks: tuple[TheoremCheck, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _template_check(name: str, template: UGraph, expected: dict[str, Digraph]) -> TheoremCheck:
    """Classify the recognized orientations of ``template`` against the
    expected classes; with none expected it is a freeness check."""
    result = classify_qbmgs(orientations_of(template))
    expected_codes = {key: canonical_form(g).code for key, g in expected.items()}
    found = result.codes()
    missing = sorted(key for key, code in expected_codes.items() if code not in found)
    extra = len(found - set(expected_codes.values()))
    ok = not missing and not extra and result.count == len(expected)
    if not expected:
        detail = f"{result.count} classes among 3^{len(template.edges)} orientations"
    else:
        detail = f"{result.count} classes from {result.total_filtered} filtered graphs"
        if missing:
            detail += f"; missing {', '.join(missing)}"
        if extra:
            detail += f"; {extra} unexpected classes"
    return TheoremCheck(name, ok, f"{detail} (expected {len(expected)})")


# every orientation of the 3-vertex path passes recognition; the 9 labeled
# digraphs fall into 6 classes (pairs of edge states toward/away/both at the
# middle vertex, unordered under the path reflection)
PATH3_CLASS_COUNT = 6


def check_path3_classes() -> TheoremCheck:
    result = classify_qbmgs(orientations_of(path_template(3)))
    ok = result.count == PATH3_CLASS_COUNT and result.total_filtered == 9
    return TheoremCheck(
        "path3-classification", ok,
        f"{result.count} classes, {result.total_filtered}/9 orientations recognized "
        f"(expected {PATH3_CLASS_COUNT} and 9)")


def check_three_vertex_recognition() -> TheoremCheck:
    verdicts = [is_qbmg(g) for g in all_bipartite_digraphs(3)]
    good, total = sum(verdicts), len(verdicts)
    return TheoremCheck(
        "three-vertex-recognition", good == total,
        f"{good}/{total} bipartite digraphs on 3 vertices recognized")


def check_ex7_induced_class() -> TheoremCheck:
    sub, _ = induced_subdigraph(fixtures.EX7, range(5))
    code = canonical_form(sub).code
    matches = [
        name for name, g in fixtures.P5_CLASSES.items()
        if canonical_form(g).code == code
    ]
    ok = len(matches) == 1
    detail = f"induced subgraph on v1..v5 matches {matches or 'nothing'}"
    if matches != ["P5a1"]:
        detail += "; FLAG: differs from the stated class P5a1"
    return TheoremCheck("ex7-induced-class", ok, detail)


_CHECKS: tuple[Callable[[], TheoremCheck], ...] = (
    check_path3_classes,
    partial(_template_check, "path4-classification", path_template(4), fixtures.P4_CLASSES),
    partial(_template_check, "path5-classification", path_template(5), fixtures.P5_CLASSES),
    partial(_template_check, "path6-freeness", path_template(6), {}),
    partial(_template_check, "cycle4-classification", cycle_template(4), fixtures.C4_CLASSES),
    partial(_template_check, "cycle6-freeness", cycle_template(6), {}),
    check_three_vertex_recognition,
    check_ex7_induced_class,
)


def verify_paper_counts() -> VerifyReport:
    """Run every built-in classification and vacuity check, in a fixed order."""
    return VerifyReport(tuple(job() for job in _CHECKS))
