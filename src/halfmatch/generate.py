"""Deterministic random market generation.

A fixed seed always produces the same instance, byte for byte, so
fixtures are portable. The sampling procedure is part of the contract:

1. vertices are ``v00 .. v{n-1:02d}``; when ``bipartite`` the even
   indices form one side and odd ones the other;
2. every unordered vertex pair (same-side pairs excluded when
   bipartite) independently becomes an edge with probability
   ``edge_density``, and each accepted pair gains one extra parallel
   edge per success of up to three ``parallel_prob`` trials;
3. each vertex draws a uniformly random permutation of its incident
   edges, and each position merges into the preceding tie class with
   probability ``tie_prob``; valuations are descending integers per
   class (worst class 1, unmatched 0);
4. weights, when requested, are uniform integers over ``weight_range``;
5. gamma presets derive thresholds from the minimum positive valuation
   gap g (1 on the canonical scale): ``min-like`` uses gamma=3g/2,
   delta=7g/4 (close thresholds), ``max-like`` gamma=g/2, delta=3g/2
   (any strict improvement meets gamma), ``generic`` draws gamma from
   {g/2, 3g/2} and delta = gamma + g per slot.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .core import Edge, Instance, InstanceError, _instance

GAMMA_PRESETS = ("none", "min-like", "max-like", "generic")


def generate_random(
    seed: int,
    n: int,
    edge_density: float = 0.5,
    parallel_prob: float = 0.0,
    tie_prob: float = 0.0,
    weight_range: tuple[int, int] | None = None,
    gamma_preset: str = "none",
    *,
    bipartite: bool = False,
    critical_count: int = 0,
) -> Instance:
    """Sample a market. Deterministic for a fixed argument tuple.

    Raises :class:`InstanceError` (a ``ValueError``) on a bad argument.
    """
    if n < 0:
        raise InstanceError(f"n must be nonnegative, got {n}")
    if not 0 <= edge_density <= 1 or not 0 <= parallel_prob <= 1 or not 0 <= tie_prob <= 1:
        raise InstanceError("probabilities must lie in [0, 1]")
    if gamma_preset not in GAMMA_PRESETS:
        raise InstanceError(f"gamma_preset must be one of {GAMMA_PRESETS}")
    if weight_range is not None and weight_range[0] > weight_range[1]:
        raise InstanceError(f"empty weight range: minimum {weight_range[0]} > "
                            f"maximum {weight_range[1]}")
    if not 0 <= critical_count <= n:
        raise InstanceError(f"critical_count {critical_count} is not in [0, n={n}]")

    rng = random.Random(f"halfmatch-{seed}")
    vertices = [f"v{i:02d}" for i in range(n)]

    edges: list[Edge] = []
    serial = 0
    for i in range(n):
        for j in range(i + 1, n):
            if bipartite and i % 2 == j % 2:
                continue
            if rng.random() >= edge_density:
                continue
            copies = 1
            for _ in range(3):
                if rng.random() < parallel_prob:
                    copies += 1
            for _ in range(copies):
                edges.append(Edge(f"e{serial:03d}", vertices[i], vertices[j]))
                serial += 1

    incident: dict[str, list[str]] = {v: [] for v in vertices}
    for eid, u, v in edges:
        incident[u].append(eid)
        incident[v].append(eid)

    groups: dict[str, list[list[str]]] = {}
    for v in vertices:
        order = sorted(incident[v])
        rng.shuffle(order)
        classes: list[list[str]] = []
        for eid in order:
            if classes and rng.random() < tie_prob:
                classes[-1].append(eid)
            else:
                classes.append([eid])
        groups[v] = classes

    weights = None
    if weight_range is not None:
        lo, hi = weight_range
        weights = {eid: Fraction(rng.randint(lo, hi)) for eid, _, _ in edges}

    gamma = None
    if gamma_preset != "none":  # at g = 1, as an instance file writes them
        pairs = [{"gamma": g, "delta": d} for g, d in {
            "min-like": [("3/2", "7/4")], "max-like": [("1/2", "3/2")],
            "generic": [("1/2", "3/2"), ("3/2", "5/2")]}[gamma_preset]]
        draw = (lambda: pairs[0]) if len(pairs) == 1 else (lambda: rng.choice(pairs))
        gamma = [(eid, {u: draw(), v: draw()}) for eid, u, v in edges]

    critical = None
    if critical_count:
        critical = sorted(rng.sample(vertices, critical_count))

    return _instance(vertices, edges, groups, weights=weights, gamma=gamma, critical=critical)
