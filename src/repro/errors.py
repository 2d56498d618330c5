"""Exception hierarchy for the ``repro`` library.

All library-specific errors derive from :class:`ReproError` so callers can
catch everything raised by this package with a single ``except`` clause while
still being able to distinguish the individual failure modes.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the ``repro`` package."""


class GraphFormatError(ReproError):
    """An input file or edge stream could not be parsed into a graph."""


class GraphIntegrityError(ReproError):
    """A graph object violates a structural invariant.

    Raised by :func:`repro.graph.validate.validate_graph` when a CSR graph is
    internally inconsistent (unsorted adjacency, asymmetric edges, self loops,
    out-of-range endpoints, ...).
    """


class UnknownMetricError(ReproError, KeyError):
    """A community scoring metric name is not present in the registry."""

    def __init__(self, name: str, available: tuple[str, ...] = ()):
        self.name = name
        self.available = available
        hint = f"; available: {', '.join(available)}" if available else ""
        super().__init__(f"unknown community metric {name!r}{hint}")


class UnknownFamilyError(ReproError, KeyError):
    """A hierarchy family name is not present in the registry.

    Raised by :func:`repro.engine.get_family` for names that neither a
    built-in family module nor :func:`repro.engine.register_family`
    provides.
    """

    def __init__(self, name: str, available: tuple[str, ...] = ()):
        self.name = name
        self.available = available
        hint = f"; available: {', '.join(available)}" if available else ""
        super().__init__(f"unknown hierarchy family {name!r}{hint}")


class UnknownBackendError(ReproError, KeyError):
    """A kernel backend name is not present in the registry.

    Raised by :func:`repro.kernels.get_backend` for unknown ``backend=``
    arguments and unknown ``REPRO_BACKEND`` environment values.
    """

    def __init__(self, name: str, available: tuple[str, ...] = ()):
        self.name = name
        self.available = available
        hint = f"; available: {', '.join(available)}" if available else ""
        super().__init__(f"unknown kernel backend {name!r}{hint}")


class MetricRequirementError(ReproError):
    """A metric was evaluated without the primary values it requires.

    For example, asking for ``clustering_coefficient`` from an algorithm run
    that did not count triangles.
    """


class EmptyGraphError(ReproError, ValueError):
    """An operation that needs at least one vertex/edge got an empty graph.

    Raised when a best-k query has no non-empty candidate to choose from:
    a graph without vertices, or without edges for the k-truss forest.
    Also a :class:`ValueError`, the type these queries raised before.
    """


class GraphDeltaError(ReproError):
    """A :class:`repro.dynamic.GraphDelta` is malformed or inapplicable.

    Raised for structural problems (self loops, negative ids, overlapping
    insert/delete sets) and, under strict application, for no-op edges:
    inserting an edge already present or deleting one that is missing.
    """


class QueryError(ReproError):
    """An application-level query is unsatisfiable or malformed.

    Used by the size-constrained k-core search when the query vertex does not
    admit any k-core of the requested size.
    """


class ScenarioMismatchError(ReproError):
    """A scenario run produced a different answer than the reference.

    Raised by :mod:`repro.scenarios` when a registered scenario's result
    (best k, score, or vertex set) is not bit-identical to the python
    reference execution — the self-measurement harness refuses to time a
    wrong answer.
    """
