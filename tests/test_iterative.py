"""Tests for the iterative h-index route to coreness.

Coreness is the fixpoint of the h-index operator started from degrees;
the ``hindex_fixpoint`` kernel is one sweep of that operator, and
:func:`~repro.external.semi_external_core_numbers` iterates it
out of core over an edge list on disk.  Both must agree with the
Batagelj–Zaversnik peel.
"""

import numpy as np
import pytest

from repro.core import core_decomposition
from repro.dynamic import edges_from_file
from repro.graph import save_edge_list
from repro.kernels import get_backend
from repro.external import semi_external_core_numbers, write_edge_npy
from conftest import random_graph, zoo_params

BACKENDS = ("python", "numpy")


def hindex_rounds(graph, backend: str):
    """The estimate after each full sweep, from degrees to the fixpoint."""
    kernel = get_backend(backend)
    estimate = np.array(graph.degrees(), dtype=np.int64)
    vertices = np.arange(graph.num_vertices, dtype=np.int64)
    rounds = []
    while True:
        nxt = kernel.hindex_fixpoint(graph, estimate, vertices)
        rounds.append(nxt)
        if np.array_equal(nxt, estimate):
            return rounds
        estimate = nxt


def semi_external_from_text(text_path, tmp_path, **kwargs):
    """Text edge list -> ``.npy`` edge file -> out-of-core decomposition."""
    npy = write_edge_npy(edges_from_file(text_path), tmp_path / "edges.npy")
    return semi_external_core_numbers(npy, **kwargs)


class TestHIndexEngine:
    @zoo_params()
    def test_matches_bz(self, graph):
        expected = core_decomposition(graph).coreness.tolist()
        for backend in BACKENDS:
            assert hindex_rounds(graph, backend)[-1].tolist() == expected

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_bz_random(self, seed):
        g = random_graph(40, 140, seed)
        expected = core_decomposition(g).coreness.tolist()
        for backend in BACKENDS:
            assert hindex_rounds(g, backend)[-1].tolist() == expected

    def test_monotone_upper_bound(self, figure2):
        # Every sweep is non-increasing and stays an upper bound on coreness.
        exact = core_decomposition(figure2).coreness
        for backend in BACKENDS:
            previous = np.array(figure2.degrees(), dtype=np.int64)
            for estimate in hindex_rounds(figure2, backend):
                assert (estimate <= previous).all()
                assert (estimate >= exact).all()
                previous = estimate


class TestSemiExternalEngine:
    def test_matches_in_memory(self, figure2, tmp_path):
        path = tmp_path / "g.txt"
        save_edge_list(figure2, path)
        result = semi_external_from_text(path, tmp_path)
        expected = core_decomposition(figure2).coreness
        assert result.coreness.tolist() == expected.tolist()

    def test_gzip_input(self, figure2, tmp_path):
        path = tmp_path / "g.txt.gz"
        save_edge_list(figure2, path)
        result = semi_external_from_text(path, tmp_path)
        assert result.coreness.max() == 3

    @pytest.mark.parametrize("seed", range(3))
    def test_random_graphs(self, seed, tmp_path):
        g = random_graph(35, 90, seed)
        path = tmp_path / "g.txt"
        save_edge_list(g, path)
        result = semi_external_from_text(path, tmp_path, num_vertices=g.num_vertices)
        expected = core_decomposition(g).coreness
        assert result.coreness.tolist() == expected.tolist()

    def test_reports_pass_count(self, figure2, tmp_path):
        path = tmp_path / "g.txt"
        save_edge_list(figure2, path)
        result = semi_external_from_text(path, tmp_path)
        assert result.rounds >= 1
