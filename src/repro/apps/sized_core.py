"""Size-constrained k-core queries (Opt-SC) — paper Section V-D, Table IX.

Given a query vertex ``v``, a minimum order ``k`` and a target size ``h``,
find a k-core-like subgraph of roughly ``h`` vertices containing ``v``.
The problem is NP-hard in general; the paper's **Opt-SC** heuristic uses
the per-core average degrees that Algorithm 5 computes anyway:

1. among the cores containing ``v`` (the ancestor chain of v's forest
   node), pick the core ``S'`` with the highest average degree subject to
   ``k' >= k`` and ``|V(S')| >= h``;
2. peel ``S'`` down towards ``h`` vertices: repeatedly remove the
   lowest-degree vertex (never ``v``), cascading the removal of any vertex
   whose degree drops below ``k``; stop as soon as ``|V| <= h``.

A query *hits* (Table IX) when the returned subgraph contains ``v``, is a
k-core, and deviates from ``h`` by at most 5%.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from ..errors import QueryError
from ..graph.adjacency import AdjacencyGraph
from ..graph.csr import Graph
from ..graph.views import component_of
from ..core.bestk_core import kcore_scores
from ..engine import LevelNodeScores

__all__ = ["SizedCoreResult", "OptSC"]


@dataclass(frozen=True)
class SizedCoreResult:
    """Answer to one size-constrained query."""

    vertices: np.ndarray
    k: int
    target_size: int
    #: Which core the peeling started from (forest node id).
    source_node: int

    @property
    def size(self) -> int:
        """Number of vertices returned."""
        return len(self.vertices)

    def deviation(self) -> float:
        """Relative size deviation from the target ``h``."""
        return abs(self.size - self.target_size) / self.target_size

    def hits(self, tolerance: float = 0.05) -> bool:
        """Whether the result is within ``tolerance`` of the target size."""
        return self.size > 0 and self.deviation() <= tolerance


class OptSC:
    """Reusable size-constrained query engine over one graph.

    Construction performs the full Algorithm 5 pass once (average-degree
    scores for every core); each query is then linear in the size of the
    core it peels.
    """

    def __init__(self, graph: Graph, *, scores: LevelNodeScores | None = None):
        self.graph = graph
        self._scores = scores if scores is not None else kcore_scores(graph, "average_degree")
        self._forest = self._scores.forest

    # ------------------------------------------------------------------
    def query(self, v: int, k: int, h: int) -> SizedCoreResult:
        """Find a k-core of about ``h`` vertices containing ``v``.

        Raises :class:`QueryError` when no core containing ``v`` satisfies
        both constraints (e.g. ``c(v) < k`` or every candidate core is
        smaller than ``h``).
        """
        if h < k + 1:
            raise QueryError(f"a k-core needs at least k+1={k + 1} vertices, got h={h}")
        forest = self._forest
        node_id = forest.node_of_vertex(v)
        if node_id < 0:
            raise QueryError(f"vertex {v} is not in the graph")
        if forest.nodes[node_id].k < k:
            raise QueryError(f"coreness of vertex {v} is {forest.nodes[node_id].k} < k={k}")

        # Candidate chain: v's node and its ancestors with level >= k.
        best_node = -1
        best_score = -np.inf
        current = node_id
        while current != -1 and forest.nodes[current].k >= k:
            size = self._scores.values[current].num_vertices
            score = self._scores.scores[current]
            if size >= h and score > best_score:
                best_score, best_node = score, current
            current = forest.nodes[current].parent
        if best_node == -1:
            raise QueryError(
                f"no core containing vertex {v} has order >= {k} and size >= {h}"
            )
        members = forest.component_vertices(best_node)
        result = self._peel(members, v, k, h)
        if abs(len(result) - h) / h > 0.05:
            # The top-down peel disconnected v's dense pocket from the big
            # core (common when v sits in a deep core hanging off the rest
            # by few bridges).  Retry bottom-up: grow a k-core around v's
            # deepest small core instead.
            grown = self._grow(v, k, h)
            if grown is not None and abs(len(grown) - h) < abs(len(result) - h):
                result = grown
        return SizedCoreResult(result, k, h, best_node)

    # ------------------------------------------------------------------
    def _grow(self, v: int, k: int, h: int) -> np.ndarray | None:
        """Grow a k-core of about ``h`` vertices outward from ``v``.

        Seeds with the deepest core containing ``v`` that fits within ``h``
        vertices, then repeatedly adds the outside neighbour with the most
        edges into the current set; after each batch the set is trimmed back
        to a k-core around ``v``.  Returns ``None`` when no candidate of
        acceptable size emerges.
        """
        forest = self._forest
        seed_node = forest.node_of_vertex(v)
        seed = None
        current = seed_node
        while current != -1 and forest.nodes[current].k >= k:
            if self._scores.values[current].num_vertices <= h:
                seed = current
            current = forest.nodes[current].parent
        members = set(
            int(u) for u in (forest.component_vertices(seed) if seed is not None else [v])
        )
        graph = self.graph
        indptr, indices = graph.indptr, graph.indices

        # conn[u] = edges from candidate u into the current set.
        conn: dict[int, int] = {}
        for u in members:
            for j in range(indptr[u], indptr[u + 1]):
                w = int(indices[j])
                if w not in members:
                    conn[w] = conn.get(w, 0) + 1

        best: np.ndarray | None = None
        levels = self._vertex_levels()
        max_rounds = 6 * h
        for _ in range(max_rounds):
            if len(members) >= h:
                trimmed = self._trim_to_kcore(members, v, k)
                if trimmed is not None:
                    if best is None or abs(len(trimmed) - h) < abs(len(best) - h):
                        best = trimmed
                    if abs(len(trimmed) - h) / h <= 0.05:
                        break
            if not conn:
                break
            # Most-connected outside neighbour joins next; ties steer the
            # growth towards high-coreness (dense) regions.
            u = max(conn, key=lambda x: (conn[x], levels[x], -x))
            conn.pop(u)
            members.add(u)
            for j in range(indptr[u], indptr[u + 1]):
                w = int(indices[j])
                if w not in members:
                    conn[w] = conn.get(w, 0) + 1
        return best

    def _vertex_levels(self) -> np.ndarray:
        """Coreness per vertex, derived from the forest nodes (cached)."""
        cached = getattr(self, "_levels_cache", None)
        if cached is None:
            cached = np.zeros(self.graph.num_vertices, dtype=np.int64)
            for node in self._forest.nodes:
                cached[node.vertices] = node.k
            self._levels_cache = cached
        return cached

    def _trim_to_kcore(self, members: set[int], v: int, k: int) -> np.ndarray | None:
        """Restrict ``members`` to the k-core component around ``v``."""
        degree = {u: 0 for u in members}
        graph = self.graph
        for u in members:
            degree[u] = sum(1 for w in graph.neighbors(u) if int(w) in members)
        doomed = [u for u, d in degree.items() if d < k]
        alive = set(members)
        while doomed:
            u = doomed.pop()
            if u not in alive:
                continue
            alive.discard(u)
            for w in graph.neighbors(u):
                w = int(w)
                if w in alive:
                    degree[w] -= 1
                    if degree[w] < k:
                        doomed.append(w)
        if v not in alive:
            return None
        return self._restrict_to_component(np.asarray(sorted(alive), dtype=np.int64), v)

    # ------------------------------------------------------------------
    def _peel(self, members: np.ndarray, v: int, k: int, h: int) -> np.ndarray:
        """Peel ``members`` towards ``h`` vertices, keeping a k-core around ``v``.

        The loop removes the lowest-degree vertex (never ``v``), cascades
        anything that falls below degree ``k``, and discards components that
        split away from ``v`` (they cannot be part of the answer, so dropping
        them is free peeling progress).  Once the working graph is close to
        the target, every step is checked exactly: a step that would destroy
        or undershoot v's k-core is undone and its trigger vertex is
        blacklisted, so the peel ends as near to ``h`` as the structure
        allows.
        """
        work = AdjacencyGraph(0)
        member_set = set(int(u) for u in members)
        for u in member_set:
            work.add_vertex(u)
        indptr, indices = self.graph.indptr, self.graph.indices
        for u in member_set:
            for j in range(indptr[u], indptr[u + 1]):
                w = int(indices[j])
                if w in member_set and u < w:
                    work.add_edge(u, w)

        def component_of_v() -> set[int]:
            seen = {v}
            stack = [v]
            while stack:
                x = stack.pop()
                for y in work.neighbors(x):
                    if y not in seen:
                        seen.add(y)
                        stack.append(y)
            return seen

        def drop_fragments() -> bool:
            """Remove everything outside v's component; False if v's k-core died."""
            if v not in work or work.degree(v) < k:
                return False
            comp = component_of_v()
            if len(comp) < work.num_vertices:
                for x in [x for x in work.vertices() if x not in comp]:
                    work.remove_vertex(x)
            return True

        # Lazy min-heap over degrees; stale entries are skipped on pop.
        # ``protected`` holds v plus every vertex whose removal was tried
        # and found to destroy v's k-core; those steps are undone and the
        # vertex never attempted again.
        heap = [(work.degree(u), u) for u in work.vertices() if u != v]
        heapq.heapify(heap)
        protected = {v}
        floor = max(int(0.95 * h), k + 1)
        careful_at = max(2 * h, h + 32)  # exact per-step control below this
        steps_since_sweep = 0
        while work.num_vertices > h and heap:
            careful = work.num_vertices <= careful_at
            deg, u = heapq.heappop(heap)
            if u not in work or u in protected or work.degree(u) != deg:
                continue
            snapshot = set(work.vertices()) if careful else None
            # Remove u, cascading every unprotected vertex pushed below k.
            removed: list[int] = []
            frontier = [u]
            failed = False
            while frontier:
                w = frontier.pop()
                if w not in work:
                    continue
                if w in protected:
                    failed = True
                    break
                touched = list(work.neighbors(w))
                work.remove_vertex(w)
                removed.append(w)
                for x in touched:
                    if work.degree(x) < k:
                        if x in protected:
                            failed = True
                            break
                        frontier.append(x)
                    else:
                        heapq.heappush(heap, (work.degree(x), x))
                if failed:
                    break
            if careful:
                # Exact control: drop split-off fragments, then verify the
                # step kept v's k-core at or above the size floor.
                alive = not failed and drop_fragments()
                if not alive or work.num_vertices < floor:
                    restored = snapshot - set(work.vertices())
                    self._restore(work, restored, member_set)
                    for w in restored:
                        heapq.heappush(heap, (work.degree(w), w))
                        for x in work.neighbors(w):
                            heapq.heappush(heap, (work.degree(x), x))
                    protected.add(u)
                continue
            if failed:
                # Cheap phase: undo the step, blacklist u.
                self._restore(work, set(removed), member_set)
                for w in removed:
                    heapq.heappush(heap, (work.degree(w), w))
                    for x in work.neighbors(w):
                        heapq.heappush(heap, (work.degree(x), x))
                protected.add(u)
                continue
            # Cheap phase: sweep fragments occasionally (splits are rare in
            # dense cores; the sweep is amortised).
            steps_since_sweep += 1
            if steps_since_sweep >= 64:
                steps_since_sweep = 0
                if not drop_fragments():
                    break  # cannot happen while v is protected; defensive
        return self._restrict_to_component(
            np.asarray(sorted(work.vertices()), dtype=np.int64), v
        )

    def _restore(self, work: AdjacencyGraph, removed: set[int], member_set: set[int]) -> None:
        """Re-insert ``removed`` vertices with edges to surviving members."""
        for w in removed:
            work.add_vertex(w)
        for w in removed:
            for x in self.graph.neighbors(w):
                x = int(x)
                if x != w and x in work and x in member_set and not work.has_edge(w, x):
                    work.add_edge(w, x)

    def _restrict_to_component(self, vertices: np.ndarray, v: int) -> np.ndarray:
        """Keep only the connected component of ``v`` (a k-core is connected)."""
        if len(vertices) == 0:
            return vertices
        return component_of(self.graph, v, within=vertices)
