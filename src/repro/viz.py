"""Plain-text visualisations of core hierarchies and score profiles.

Terminal-friendly renderings of the structures this library computes:

* :func:`render_forest` — the core forest as an indented tree (the paper's
  Figure 4, in ASCII), annotated with per-core sizes and optional scores;
* :func:`render_shell_histogram` — the shell-size distribution (how the
  graph's mass spreads across coreness values);
* :func:`render_score_profile` — score-vs-k of a Problem 1
  :class:`~repro.engine.LevelSetScores` with a sparkline and the best k
  marked (the paper's Figure 5, one metric at a time).

Everything returns a string; the CLI prints them, and the test suite
asserts their structure.
"""

from __future__ import annotations

import math

import numpy as np

from .bench.figures import sparkline
from .core.decomposition import CoreDecomposition
from .engine.forest import LevelForest
from .engine.levels import LevelSetScores

__all__ = ["render_forest", "render_shell_histogram", "render_score_profile"]


def render_forest(
    forest: LevelForest,
    *,
    scores: np.ndarray | None = None,
    max_nodes: int = 200,
    max_roots: int = 20,
) -> str:
    """Render the core forest as an indented ASCII tree.

    Parameters
    ----------
    forest:
        The hierarchy to draw.
    scores:
        Optional per-node scores (e.g. ``LevelNodeScores.scores``) appended to
        each line.
    max_nodes / max_roots:
        Output is truncated beyond these limits (big graphs have thousands
        of cores); a trailing line reports how much was elided.
    """
    lines: list[str] = []
    emitted = 0
    elided = 0

    def total_size(node_id: int) -> int:
        size = 0
        stack = [node_id]
        while stack:
            node = forest.nodes[stack.pop()]
            size += len(node.vertices)
            stack.extend(node.children)
        return size

    def emit(node_id: int, prefix: str, is_last: bool) -> None:
        nonlocal emitted, elided
        if emitted >= max_nodes:
            elided += 1
            return
        node = forest.nodes[node_id]
        connector = "`-- " if is_last else "|-- "
        head = "" if prefix == "" and is_last else connector
        label = f"{node.k}-core  (|shell|={len(node.vertices)}, |core|={total_size(node_id)})"
        if scores is not None and not math.isnan(float(scores[node_id])):
            label += f"  score={float(scores[node_id]):.4g}"
        lines.append(f"{prefix}{head}{label}" if prefix else label)
        emitted += 1
        children = sorted(node.children, key=lambda c: (-forest.nodes[c].k, c))
        child_prefix = prefix + ("    " if is_last else "|   ")
        if prefix == "":
            child_prefix = "    " if is_last else "|   "
        for i, child in enumerate(children):
            emit(child, child_prefix, i == len(children) - 1)

    roots = list(forest.roots)
    shown_roots = roots[:max_roots]
    for root in shown_roots:
        emit(root, "", True)
    if len(roots) > len(shown_roots):
        lines.append(f"... {len(roots) - len(shown_roots)} more trees")
    if elided:
        lines.append(f"... {elided} more cores elided")
    if not lines:
        lines.append("(empty forest)")
    return "\n".join(lines)


def render_shell_histogram(decomposition: CoreDecomposition, *, width: int = 50) -> str:
    """Shell sizes as a horizontal bar chart, one row per non-empty shell."""
    kmax = decomposition.kmax
    sizes = [decomposition.shell_size(k) for k in range(kmax + 1)]
    biggest = max(sizes) if sizes else 0
    if biggest == 0:
        return "(no vertices)"
    lines = [f"shell sizes (n={len(decomposition.coreness)}, kmax={kmax})"]
    for k, size in enumerate(sizes):
        if size == 0:
            continue
        bar = "#" * max(1, round(size / biggest * width))
        lines.append(f"  k={k:4d} |{bar} {size}")
    return "\n".join(lines)


def render_score_profile(scores: LevelSetScores, *, width: int = 60) -> str:
    """Score of every k-core set, with a sparkline and the best k marked."""
    values = scores.scores
    best = scores.best_k()
    lines = [
        f"{scores.metric.name} across k = 0 .. {scores.kmax}",
        "  " + sparkline(values, width=width),
        f"  best k = {best}  (score {values[best]:.6g}, "
        f"|V| = {scores.values[best].num_vertices})",
    ]
    finite = [(k, s) for k, s in enumerate(values) if not math.isnan(s)]
    if finite:
        worst_k, worst = min(finite, key=lambda p: p[1])
        lines.append(f"  worst k = {worst_k}  (score {worst:.6g})")
    return "\n".join(lines)
