"""Exhaustive generation and isomorphism classification of small bipartite
digraphs, plus the aggregated verification report.

``orientations_of`` walks the 3^m direction assignments over a fixed
undirected template and feeds ``classify_qbmgs``, which canonicalizes every
recognized graph (used for the template counts and ``verify``).
``run_mask_sweep`` walks every per-pair edge state of one coloring over
reused bitmasks, without building graphs, setting the pairs vertex by vertex
so that an optional ``keep`` test can prune a rejected induced prefix with
all of its completions.  ``classify_all_qbmgs`` drives it with
``keep=is_qbmg_masks_delta``, which tests only the axiom tuples through the
newest vertex because the sweep calls it only on extensions of a prefix that
passed (recognition is hereditary, so no recognized graph is pruned).
Recognition is invariant under relabeling, so it sweeps one sorted coloring
``(0,)*k + (1,)*(n-k)`` per color-class size k >= n/2 and weights each
recognized edge set by the number of colorings with those class sizes,
complements included.  It runs one canonical search per isomorphism class:
the ordering that search finds gives the class representative, and the rest
of the class is marked seen through its vertex-permutation orbit.
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
from .axioms import is_qbmg_masks, is_qbmg_masks_delta, recognize
from .digraph import (
    CANONICAL_MAX_VERTICES,
    CanonicalForm,
    Digraph,
    UGraph,
    _mask_components,
    _pack_levels,
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
    not be classified anyway."""
    if g.n > CANONICAL_MAX_VERTICES:
        raise TooLarge(f"orientation enumeration supports at most {CANONICAL_MAX_VERTICES} vertices")
    # forward, backward, both: edge states 1-3 of ``_state_digraphs``
    yield from _state_digraphs(g.colors, g.names, g.sorted_edges(), (1, 2, 3))


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


def run_mask_sweep(
    colors: Sequence[int],
    visit: Callable[[list[int], list[int]], None],
    keep: Callable[[int, list[int], list[int]], bool] | None = None,
) -> int:
    """Drive ``visit(out_masks, in_masks)`` over every edge-state assignment
    for the given coloring; masks are reused in place between calls.  Returns
    the number of graphs visited.

    Pairs are set vertex by vertex (``opposite_pairs`` order): every pair
    (j, k) with j < k for k = 1, then for k = 2, and so on.  With ``keep``,
    the sweep calls ``keep(k + 1, out, inn)`` when vertex k's last pair is
    set, at which point the masks hold the subgraph induced on vertices
    0..k, and visits no completion of a prefix it rejects.  The check after
    the final pair, or before any when the coloring has none, is
    ``keep(n, out, inn)``, so ``visit`` sees only graphs it accepts.
    Pruning is exact for a hereditary ``keep`` such as ``is_qbmg_masks``: a
    rejected prefix is an induced subgraph of each of its completions.
    """
    n = len(colors)
    pairs = opposite_pairs(colors)
    last = len(pairs)
    # checks[i]: the vertex count keep tests once pairs[:i] are set (0: none)
    checks = [0] * (last + 1)
    if keep is not None:
        for i in range(1, last):
            if pairs[i][1] != pairs[i - 1][1]:
                checks[i] = pairs[i - 1][1] + 1
        checks[last] = n
    out = [0] * n
    inn = [0] * n
    count = 0

    def rec(i: int) -> None:
        nonlocal count
        m = checks[i]
        if m and not keep(m, out, inn):
            return
        if i == last:
            count += 1
            visit(out, inn)
            return
        u, v = pairs[i]
        ubit, vbit = 1 << u, 1 << v
        rec(i + 1)
        out[u] |= vbit
        inn[v] |= ubit
        rec(i + 1)
        out[v] |= ubit
        inn[u] |= vbit
        rec(i + 1)
        out[u] &= ~vbit
        inn[v] &= ~ubit
        rec(i + 1)
        out[v] &= ~ubit
        inn[u] &= ~vbit

    try:
        rec(0)
    finally:
        # rec's closure refers to rec itself; without this the cycle keeps
        # visit and everything it closes over alive until a full collection
        del rec
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
    ceil(n/2) are swept, on masks with ``keep=is_qbmg_masks_delta``, so a
    prefix that fails recognition is never extended and only recognized edge
    sets reach the visitor.  The delta kernel assumes the prefix without its
    newest vertex passes.  That holds at every call: the sweep calls
    ``keep`` only at vertex boundaries, each after the previous boundary's
    call accepted, and vertices before the first boundary have no
    opposite-color vertex before them, so they form an edgeless
    monochromatic prefix, which passes trivially.

    ``total_filtered`` counts recognized (coloring, edge set) pairs over all
    2^n colorings, as the reference does.  Any coloring with k zeros is a
    relabeling of the sorted one, and relabeling maps its recognized edge
    sets one to one onto theirs; a coloring and its complement have the
    same opposite-color pairs.  So each recognized edge
    set of the sorted coloring with k zeros adds ``comb(n, k)``, doubled
    unless 2k = n (the complement then has the same class sizes and is
    counted among the ``comb(n, k)``).  For n = 0 the single empty coloring
    adds 1.

    The first recognized edge set of a class gets one canonical search
    (``canonical_order``); all n! relabelings of it are then marked seen, so
    later members, in this coloring or another, cost a set lookup.  Every
    class has a member in some sorted coloring.  The witness is the edge set
    relabeled by the ordering that search returns, so it does not depend on
    which member was found first.  Its identity levels are the canonical
    levels, the least over the orbit, and border levels determine the edge
    set, so it is the orbit member with the least identity levels, which the
    reference keeps.  It takes the sweep's coloring, relabeled, with every
    component flipped so that its least vertex has color 0: the first valid
    coloring in sweep order, as the reference keeps on ties.
    """
    if n > ENUM_MAX_VERTICES:
        raise TooLarge(f"unconstrained enumeration supports at most {ENUM_MAX_VERTICES} vertices")
    names = default_names(n)
    # each vertex permutation with the image of every vertex bitmask under it
    relabelings: list[tuple[tuple[int, ...], list[int]]] = []
    for perm in permutations(range(n)):
        image = [0] * (1 << n)
        for mask in range(1, 1 << n):
            low = mask & -mask
            image[mask] = image[mask ^ low] | 1 << perm[low.bit_length() - 1]
        relabelings.append((perm, image))
    seen: set[tuple[int, ...]] = set()
    classes: dict[bytes, tuple[CanonicalForm, Digraph]] = {}
    total = 0

    def visit(out: list[int], inn: list[int]) -> None:
        nonlocal total
        total += weight
        if tuple(out) in seen:
            return
        for perm, image in relabelings:
            rows = [0] * n
            for v in range(n):
                rows[perm[v]] = image[out[v]]
            seen.add(tuple(rows))
        levels, order = canonical_order(n, out, inn)
        position = [0] * n
        for k, v in enumerate(order):
            position[v] = k
        rows = tuple(sum(1 << position[w] for w in iter_bits(out[v])) for v in order)
        cols = tuple(sum(1 << position[w] for w in iter_bits(inn[v])) for v in order)
        recolored = [colors[v] for v in order]
        for comp in _mask_components([r | c for r, c in zip(rows, cols)]):
            if recolored[min(comp)]:
                for v in comp:
                    recolored[v] ^= 1
        rep = _trusted_digraph(n, tuple(recolored), names, rows, cols)
        code = _pack_levels(n, levels)
        classes[code] = (CanonicalForm(code), rep)

    for k in range(n, (n - 1) // 2, -1):
        weight = comb(n, k) * (1 if 2 * k == n else 2)
        colors = (0,) * k + (1,) * (n - k)
        run_mask_sweep(colors, visit, keep=is_qbmg_masks_delta)
    return ClassificationResult(tuple(classes[code] for code in sorted(classes)), total)


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
    verdicts = [recognize(g).is_qbmg for g in all_bipartite_digraphs(3)]
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
