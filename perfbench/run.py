"""Benchmark of the qbmg package: end-to-end metrics, or per-layer metrics
from a traced run.

    python3 perfbench/run.py --workload {sweep,classify,structure,explain} \\
        --seed N --seconds S --trace {0,1}

Run from the repository root; the package is imported from ``src/``.  Set-up
(import, seeded corpus generation, warm-up) is repeated ``SETUP_REPEATS``
times and its median reported as ``setup_s``.  Ops then run in whole passes
over the corpus until their summed time reaches ``--seconds``;
``graphs_per_s``, ``op_p50_ms`` and ``op_p90_ms`` are taken over every op of
those passes, whose count is printed as ``ops``.  Times are scaled to a
fixed machine speed by an interleaved reference loop (see ``clock.py``); the
unscaled figures are printed beside them.  Each op's outputs are checked
outside the timed region; an op that raises or fails its check counts as
failed and the run goes on.  ``fail_ratio`` is printed with the other
metrics and carried by ``failed``/``attempted`` in the result line.

Stdout carries ``#``-prefixed lines with run metadata and every metric with
its unit, then one JSON line: ``correct``, ``attempted``, ``failed`` and
``metrics``, the end-to-end metrics with ``--trace 0`` and the per-layer
metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import random
import resource
import statistics
import sys
from pathlib import Path
from types import SimpleNamespace
from typing import NamedTuple

sys.path.insert(0, str(Path(__file__).resolve().parent))

from clock import Clock  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = "qbmg"
MODULES = ("axioms", "bicliques", "cli", "decompose", "dgf", "digraph",
           "enumeration", "orientation", "paths", "trees")
SETUP_REPEATS = 7

# per-layer metrics: self time and call count per op, by traced function
SELF_S = (
    "enumeration.run_mask_sweep", "enumeration.all_bipartite_digraphs",
    "enumeration.classify_qbmgs", "axioms.is_qbmg_masks", "axioms.recognize",
    "axioms.find_n1_violation", "axioms.find_n2_violation", "axioms.find_n3_violation",
    "digraph.canonical_form", "digraph.identity_levels", "digraph.weak_components",
    "digraph.induced_subdigraph", "digraph.underlying", "paths.find_induced_path",
    "paths.find_induced_cycle", "bicliques.maximal_bicliques",
    "bicliques.find_dominating_biclique", "decompose.decompose_type_a",
    "orientation.orient", "orientation.topological_order", "orientation.all_orientations",
    "trees.qbmg_from_tree", "trees.search_explanation", "trees.phylogenetic_topologies",
    "trees.tree_from_nested", "dgf.format_dgf", "cli.main",
)
CALLS = (
    "axioms.is_qbmg_masks", "axioms.recognize", "digraph.canonical_form",
    "digraph.identity_levels", "digraph.induced_subdigraph", "digraph.underlying",
    "paths.find_induced_path", "paths.find_induced_cycle", "bicliques.maximal_bicliques",
    "decompose.is_type_a", "decompose.kos_partition", "orientation.topological_order",
    "trees.qbmg_from_tree", "trees.search_explanation", "dgf.format_dgf",
)


def load_library() -> SimpleNamespace:
    """Import the package afresh, so each set-up pays its import."""
    for name in [m for m in sys.modules if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    importlib.import_module(PACKAGE)
    return SimpleNamespace(**{m: importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES})


def set_up(workload, seed: int, clock: Clock):
    """Import, generate the corpus and warm up, ``SETUP_REPEATS`` times;
    returns the median scaled and elapsed set-up times, library and corpus."""

    def once():
        lib = load_library()
        corpus = workload.corpus(lib, random.Random(seed))
        try:
            workload.warm_up(lib, corpus)
        except Exception:  # the same failure shows again, counted, in the timed ops
            pass
        return lib, corpus

    scaled, elapsed = [], []
    for _ in range(SETUP_REPEATS):
        took, raw, built, error = clock.call(once)
        if error is not None:
            raise error
        scaled.append(took)
        elapsed.append(raw)
    lib, corpus = built
    return statistics.median(scaled), statistics.median(elapsed), lib, corpus


def measure(workload, lib, corpus, seconds: float, clock: Clock, tracer: Tracer | None):
    """Closed loop over whole corpus passes, at least one, until the ops'
    elapsed time adds up to ``seconds``.

    Returns every op's scaled and elapsed latency, the graphs processed and
    the failure reasons."""
    scaled: list[float] = []
    elapsed: list[float] = []
    failures: list[str] = []
    graphs = 0
    gc.collect()
    while True:
        for item in corpus:
            if tracer:
                tracer.begin_op()
            took, raw, result, error = clock.call(workload.op, lib, item)
            if tracer:
                tracer.end_op()
            scaled.append(took)
            elapsed.append(raw)
            graphs += workload.graphs(item)
            if error is None:
                try:
                    reason = workload.check(lib, item, result)
                except Exception as exc:
                    reason = f"oracle raised {type(exc).__name__}: {exc}"
            else:
                reason = f"{type(error).__name__}: {error}"
            if reason:
                failures.append(reason)
        if sum(elapsed) >= seconds:
            return scaled, elapsed, graphs, failures


def end_to_end_metrics(latencies: list[float], graphs: int, setup_s: float) -> dict:
    ordered = sorted(latencies)
    p90 = statistics.quantiles(ordered, n=10, method="inclusive")[8] if len(ordered) > 1 else ordered[0]
    return {
        "graphs_per_s": (graphs / sum(latencies), "graphs/s"),
        "op_p50_ms": (statistics.median(ordered) * 1e3, "ms"),
        "op_p90_ms": (p90 * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        "setup_s": (setup_s, "s"),
    }


def layer_metrics(tr: Tracer, traced_graphs_per_s: float) -> dict:
    ops = tr.ops

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    m = {f"{name}.self_s": (tr.self_s[name] / ops, "s") for name in SELF_S}
    m.update({f"{name}.calls": (tr.calls[name] / ops, "count") for name in CALLS})
    c = tr.counts
    derived = {
        "enumeration.graphs_generated": (
            (c["enumeration.graphs_generated"] + tr.yields["enumeration.all_bipartite_digraphs"]) / ops,
            "count"),
        "axioms.is_qbmg_masks.accept_ratio": (
            ratio(c["axioms.is_qbmg_masks.accepted"], tr.calls["axioms.is_qbmg_masks"]), "ratio"),
        "axioms.recognize.witness_ratio": (
            ratio(c["axioms.recognize.witnesses"], tr.calls["axioms.recognize"]), "ratio"),
        "digraph.canonical_form.useful_ratio": (
            ratio(c["digraph.canonical_form.distinct"], tr.calls["digraph.canonical_form"]), "ratio"),
        "decompose.recognize_per_call": (
            ratio(c["decompose.recognize_calls"], tr.calls["decompose.decompose_type_a"]), "count"),
        "orientation.orientations_yielded": (tr.yields["orientation.all_orientations"] / ops, "count"),
        "trees.topologies_tried": (tr.yields["trees.phylogenetic_topologies"] / ops, "count"),
        "trees.topologies_per_reject": (
            ratio(c["trees.topologies_in_rejected"], c["trees.rejected_searches"]), "count"),
        "trees.explained_ratio": (
            ratio(c["trees.explained"], tr.calls["trees.search_explanation"]), "ratio"),
        "runtime.gc_s": (tr.gc_s / ops, "s"),
        "runtime.gc_collections": (tr.gc_collections / ops, "count"),
        "runtime.traced_graphs_per_s": (traced_graphs_per_s, "graphs/s"),
    }
    m.update(derived)
    return m


def git_revision() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        loose = ROOT / ".git" / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((SRC / PACKAGE).glob("*.py")))


class Result(NamedTuple):
    metrics: dict  # name -> (value, unit)
    attempted: int
    failures: list[str]
    elapsed: dict  # the end-to-end metrics from unscaled times
    speed: float  # the machine's speed relative to the nominal one


def run(workload, seed: int, seconds: float, trace: bool) -> Result:
    """One benchmark run.  Traced runs time without scaling, so that no
    reference sample lands inside a span."""
    tracer = Tracer() if trace else None
    with Clock(scaled=not trace) as clock:
        setup_s, setup_elapsed, lib, corpus = set_up(workload, seed, clock)
        if tracer:
            tracer.install(vars(lib))
        try:
            latencies, raw, graphs, failures = measure(workload, lib, corpus, seconds, clock, tracer)
        finally:
            if tracer:
                tracer.uninstall()
    metrics = end_to_end_metrics(latencies, graphs, setup_s)
    elapsed = end_to_end_metrics(raw, graphs, setup_elapsed)
    if tracer:
        metrics = layer_metrics(tracer, metrics["graphs_per_s"][0])
    else:
        metrics["fail_ratio"] = (len(failures) / len(latencies), "ratio")
    return Result(metrics, len(latencies), failures, elapsed, clock.speed())


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / PACKAGE / "__init__.py").is_file():
        print(f"error: package source not found under {SRC.name}/{PACKAGE}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    metrics, attempted, failures, elapsed, speed = run(
        WORKLOADS[args.workload](), args.seed, args.seconds, bool(args.trace))
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "git_revision": git_revision(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "src_lines": source_lines(),
        "ops": attempted,
        "machine_speed": round(speed, 4),
    }
    print("# meta " + json.dumps(meta, sort_keys=True))
    for reason in sorted(set(failures)):
        print(f"# failure ({failures.count(reason)}x): {reason}")
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.10g} {unit}")
    if not args.trace:
        for name in ("graphs_per_s", "op_p50_ms", "op_p90_ms", "setup_s"):
            value, unit = elapsed[name]
            print(f"# unscaled {name} = {value:.10g} {unit}")
    # fail_ratio is reported above; the result line carries it as failed/attempted
    metrics.pop("fail_ratio", None)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
