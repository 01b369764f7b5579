"""Experiment S1 — the service catalogue at scale (§3.2).

The catalogue promises search-engine behaviour: indexing on publish,
ranked full-text search with snippets, availability pinging. Measured
here: publish/index rate, query latency at a few hundred services, and
raw index query latency at ten thousand documents.
"""

import random

import pytest

from benchmarks.conftest import record_experiment, stopwatch
from repro.catalogue import Catalogue
from repro.catalogue.index import InvertedIndex
from repro.container import ServiceContainer

N_SERVICES = 150
VOCAB = (
    "matrix inversion solver simplex optimization scattering spectra workflow "
    "exact rational hilbert transport linear curve fitting grid cluster batch "
    "carbon nanostructure toroid decomposition schur symbolic algebra"
).split()


def synthetic_service_config(index, rng):
    words = rng.sample(VOCAB, 6)
    return {
        "description": {
            "name": f"svc-{index:04d}",
            "title": " ".join(words[:3]),
            "description": " ".join(words),
            "inputs": {"x": {"schema": True}},
            "outputs": {"y": {"schema": True}},
        },
        "adapter": "python",
        "config": {"callable": lambda x: {"y": x}},
    }


def test_catalogue_scale(registry, benchmark):
    rng = random.Random(5)
    container = ServiceContainer("s1", handlers=2, registry=registry)
    catalogue = Catalogue(registry)
    try:
        for index in range(N_SERVICES):
            container.deploy(synthetic_service_config(index, rng))

        publish_time, _ = stopwatch(
            lambda: [
                catalogue.publish(container.service_uri(f"svc-{i:04d}"), tags=["bench"])
                for i in range(N_SERVICES)
            ]
        )

        search_time, hits = stopwatch(catalogue.search, "matrix inversion solver")
        assert hits

        ping_time, availability = stopwatch(catalogue.ping_all)
        assert all(availability.values())

        rows = [
            {
                "step": f"publish+index {N_SERVICES} services",
                "wall_s": round(publish_time, 3),
                "per_item_ms": round(publish_time / N_SERVICES * 1000, 2),
            },
            {
                "step": "ranked search with snippets",
                "wall_s": round(search_time, 4),
                "per_item_ms": round(search_time * 1000, 2),
            },
            {
                "step": f"ping all {N_SERVICES}",
                "wall_s": round(ping_time, 3),
                "per_item_ms": round(ping_time / N_SERVICES * 1000, 2),
            },
        ]
        record_experiment("S1", "Catalogue publish/search/ping at scale (§3.2)", rows)
        assert search_time < 0.5
        benchmark(lambda: catalogue.search("exact hilbert inversion"))
    finally:
        catalogue.close()
        container.shutdown()


def test_inverted_index_ten_thousand_documents(benchmark):
    rng = random.Random(11)
    index = InvertedIndex()
    build_time, _ = stopwatch(
        lambda: [
            index.add(f"doc-{i}", " ".join(rng.choices(VOCAB, k=12)))
            for i in range(10_000)
        ]
    )
    query_time, hits = stopwatch(index.search, "matrix inversion schur", 10)
    record_experiment(
        "S1b",
        "Raw inverted index: 10k documents",
        [
            {"step": "index 10k docs", "wall_s": round(build_time, 3)},
            {"step": "3-term query", "wall_s": round(query_time, 4), "hits": len(hits)},
        ],
    )
    assert hits
    assert query_time < 1.0
    benchmark(lambda: index.search("exact transport decomposition", 10))
