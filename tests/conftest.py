from fractions import Fraction

import pytest

from halfmatch.core import validate_instance
from halfmatch.generate import generate_random

F = Fraction
H = Fraction(1, 2)


@pytest.fixture
def five_agent_market():
    """Bipartite 5-agent market: u1,u2,u3 versus w1,w2.

    u1 and u2 both rank w1 over w2, u3 only accepts w2, w1 ranks u1 over
    u2, and w2 ranks u1 over u2 over u3. The companion half-matching
    puts 1/2 on all four edges among {u1,u2} x {w1,w2}.
    """
    inst = validate_instance(
        vertices=["u1", "u2", "u3", "w1", "w2"],
        edges=[
            ("u1w1", "u1", "w1"),
            ("u1w2", "u1", "w2"),
            ("u2w1", "u2", "w1"),
            ("u2w2", "u2", "w2"),
            ("u3w2", "u3", "w2"),
        ],
        pref={
            "u1": {"u1w1": 2, "u1w2": 1},
            "u2": {"u2w1": 2, "u2w2": 1},
            "u3": {"u3w2": 1},
            "w1": {"u1w1": 2, "u2w1": 1},
            "w2": {"u1w2": 3, "u2w2": 2, "u3w2": 1},
        },
    )
    m = {"u1w1": H, "u1w2": H, "u2w1": H, "u2w2": H}
    rival = {"u1w1": F(1), "u2w2": H, "u3w2": H}
    return inst, m, rival


def make_triangle():
    """Odd-party triangle: a prefers b, b prefers c, c prefers a."""
    return validate_instance(
        vertices=["a", "b", "c"],
        edges=[("ab", "a", "b"), ("bc", "b", "c"), ("ca", "c", "a")],
        pref={
            "a": {"ab": 2, "ca": 1},
            "b": {"bc": 2, "ab": 1},
            "c": {"ca": 2, "bc": 1},
        },
    )


@pytest.fixture
def cyclic_triangle():
    return make_triangle()


@pytest.fixture
def single_edge():
    return validate_instance(
        vertices=["a", "b"],
        edges=[("e", "a", "b")],
        pref={"a": {"e": 1}, "b": {"e": 1}},
    )


def sparse(rows):
    """Dense LP rows as the column maps ``simplex.solve_min`` takes."""
    return [{j: a for j, a in enumerate(row) if a} for row in rows]


def make_path(prefs_b_first="a"):
    """Path a-b-c where b prefers its `prefs_b_first` neighbour."""
    b_pref = {"ab": 2, "bc": 1} if prefs_b_first == "a" else {"ab": 1, "bc": 2}
    return validate_instance(
        vertices=["a", "b", "c"],
        edges=[("ab", "a", "b"), ("bc", "b", "c")],
        pref={"a": {"ab": 1}, "b": b_pref, "c": {"bc": 1}},
    )


def rational_market(rng, seed, n=None):
    """A generated market on n vertices (by default 3 to 7, drawn from rng)
    revalued with non-integral Fractions and a negative unmatched value;
    ties and parallel edges survive."""
    base = generate_random(seed, rng.randint(3, 7) if n is None else n, edge_density=0.6,
                           parallel_prob=0.3, tie_prob=0.4)
    scale = F(rng.randint(1, 5), rng.randint(2, 4))
    pref = {v: {eid: val * scale for eid, val in base.pref[v].items()}
            for v in base.vertices}
    pref_empty = {v: -F(rng.randint(0, 3), rng.randint(1, 3)) for v in base.vertices}
    gamma = {}
    for e in base.edges:
        for x in (e.u, e.v):
            lo = F(rng.randint(1, 6), rng.randint(1, 4))
            gamma[(e.eid, x)] = (lo, lo + F(rng.randint(1, 4), rng.randint(1, 3)))
    return validate_instance(list(base.vertices), [tuple(e) for e in base.edges],
                             pref, pref_empty=pref_empty, gamma=gamma)
