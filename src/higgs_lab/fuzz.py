"""Seeded random chain generation for the fuzz command and the test suite.

Small integers keep the polynomial coefficients readable and the exhaustive
oracles fast: genus and summand count are capped by the caller, degrees stay
in [-5, 5], and arrows are drawn uniformly from the degree-feasible pairs.
"""

from __future__ import annotations

import random
from typing import Iterator

from .chern import KahlerData
from .model import HiggsChainSpec, realize
from .modelfile import LoadedObject

DEGREE_LOW, DEGREE_HIGH = -5, 5


def _draw(rng: random.Random, max_rank: int, max_genus: int) -> tuple:
    """The RNG draws of one chain: genus, summand degrees, then the arrows."""
    genus = rng.randint(0, max_genus)
    size = rng.randint(1, max_rank)
    degrees = tuple(rng.randint(DEGREE_LOW, DEGREE_HIGH) for _ in range(size))
    canonical = 2 * genus - 2
    feasible = [
        (i, j)
        for i in range(1, size + 1)
        for j in range(1, size + 1)
        if degrees[i - 1] <= degrees[j - 1] + canonical
    ]
    return genus, degrees, frozenset(pair for pair in feasible if rng.random() < 0.5)


def fuzz_objects(
    seed: int, count: int, max_rank: int, max_genus: int
) -> Iterator[LoadedObject]:
    """Deterministic stream of realized chain models, named in seed order."""
    rng, ambients = random.Random(seed), {}  # one ambient, so one sheaf table, per genus
    for index in range(count):
        genus, degrees, arrows = _draw(rng, max_rank, max_genus)
        ambient = ambients.get(genus) or ambients.setdefault(genus, KahlerData.curve(genus, 1))
        spec = HiggsChainSpec(ambient, degrees, arrows)
        model = realize(spec, object_id=f"fuzz{index:04d}")
        yield LoadedObject(model, chain=spec, locally_free=True)
