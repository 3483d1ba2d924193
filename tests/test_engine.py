import dataclasses
import os
import random
import subprocess
import sys
import textwrap
import tracemalloc
from collections import Counter, deque
from fractions import Fraction

import pytest

import halfmatch
from halfmatch import engine
from halfmatch.core import (
    HALF,
    ONE,
    Instance,
    InstanceError,
    VerificationFailed,
    blocking_edges,
    matching_size,
    validate_instance,
    vertex_load,
)
from halfmatch.engine import (
    BoundExceeded,
    CopyMarket,
    _blocked,
    _partition,
    _positions,
    _reduce,
    brute_force_max_stable,
    enumerate_half_matchings,
    iter_stable_half_matchings,
    stable_half_matching,
)
from halfmatch.generate import generate_random
from halfmatch.reductions import (
    build_crit_reduction,
    build_gamma_reduction,
    build_pri_reduction,
    build_srti_reduction,
)
from halfmatch.solvers import max_weight_dual

import materialized
from conftest import make_path, rational_market
from materialized import materialize

F = Fraction


def test_enumeration_counts(single_edge, cyclic_triangle):
    assert len(list(enumerate_half_matchings(single_edge))) == 3
    two = validate_instance(
        ["a", "b", "c", "d"],
        [("ab", "a", "b"), ("cd", "c", "d")],
        pref={"a": {"ab": 1}, "b": {"ab": 1}, "c": {"cd": 1}, "d": {"cd": 1}},
    )
    assert len(list(enumerate_half_matchings(two))) == 9
    # 27 raw assignments, 11 meet the degree constraints (incl. all-zero)
    assert len(list(enumerate_half_matchings(cyclic_triangle))) == 11


def test_enumeration_bound(cyclic_triangle):
    with pytest.raises(BoundExceeded):
        list(enumerate_half_matchings(cyclic_triangle, bound=2))


def test_bruteforce_single_edge(single_edge):
    size, witness = brute_force_max_stable(single_edge)
    assert size == 1 and witness == {"e": ONE}


def test_bruteforce_triangle(cyclic_triangle):
    size, witness = brute_force_max_stable(cyclic_triangle)
    assert size == F(3, 2)
    assert witness == {"ab": HALF, "bc": HALF, "ca": HALF}
    # and it is the unique stable half-matching
    assert list(iter_stable_half_matchings(cyclic_triangle)) == [witness]


def test_bruteforce_tied_path():
    inst = validate_instance(
        ["a", "b", "c", "d"],
        [("ab", "a", "b"), ("bc", "b", "c"), ("cd", "c", "d")],
        pref={
            "a": {"ab": 1},
            "b": {"ab": 1, "bc": 1},   # tie
            "c": {"bc": 1, "cd": 1},   # tie
            "d": {"cd": 1},
        },
    )
    size, witness = brute_force_max_stable(inst)
    assert size == 2 and witness == {"ab": ONE, "cd": ONE}


def _oracle_outcome(oracle, *args):
    """The oracle's result, or its error's type and message (BoundExceeded,
    InstanceError and an unknown mode's error are all ValueErrors)."""
    try:
        return oracle(*args)
    except ValueError as exc:
        return type(exc), str(exc)


def test_oracle_matches_the_generic_oracle():
    """brute_force_max_stable and the enumerator's views against the generic
    oracle kept in ``materialized``: the same maximum and the same witness,
    the first maximizer in canonical order, down to the shared ``HALF`` and
    ``ONE`` objects; or the same error, at exactly ``bound`` edges and one
    more, under an unknown mode and in gamma mode without thresholds."""
    rng = random.Random(2929)
    kinds = Counter()
    markets = tied_maximizers = 0
    for seed in range(8600):
        if seed % 5 == 4:
            inst = rational_market(rng, seed, n=rng.randint(2, 4))
            preset = "rational"
        else:
            preset = ("none", "min-like", "max-like", "generic")[seed % 5]
            density = 0 if seed % 25 == 0 else rng.uniform(0.2, 0.9)
            inst = generate_random(seed, rng.randint(2, 5), edge_density=density,
                                   parallel_prob=0.3, tie_prob=rng.choice([0, 0.4]),
                                   gamma_preset=preset)
        k = len(inst.edges)
        if k > 6:
            continue
        bound = k - 1 if seed % 7 == 0 else k  # bound + 1 edges, or exactly bound
        modes = ["weak", "gamma"] if inst.has_full_gamma() else ["weak"]
        if seed % 50 == 0:
            modes.append("strong" if seed % 100 else "gamma")  # an error at the first leaf
        for mode in modes:
            want = _oracle_outcome(materialized.generic_stable, inst, mode, bound)
            got = _oracle_outcome(brute_force_max_stable, inst, mode, bound)
            assert _oracle_outcome(lambda: list(iter_stable_half_matchings(inst, mode, bound))) \
                == want, (seed, mode)
            if not isinstance(want, list):  # an error: its type and message
                assert got == want, (seed, mode)
                kinds["over_bound" if want[0] is BoundExceeded else "bad_mode"] += 1
                continue
            size, witness, ties = materialized.generic_max_stable(want)
            assert got == (size, witness), (seed, mode)
            assert list(got[1].items()) == list(witness.items())
            assert all(a is b for a, b in zip(got[1].values(), witness.values()))
            tied_maximizers += ties > 1
            kinds[mode if mode == "weak" else preset] += 1
            kinds["at_bound"] += k == bound
            kinds["no_edges"] += k == 0
            kinds["tie"] += not inst.is_strict()
            kinds["parallel"] += len({frozenset(e[1:]) for e in inst.edges}) < k
        markets += isinstance(want, list)
        if bound >= k:
            rivals = list(enumerate_half_matchings(inst, bound))
            assert rivals == list(materialized.generic_half_matchings(inst, bound))
            assert all(val is HALF or val is ONE for m in rivals for val in m.values())
    assert markets >= 5000, markets
    assert tied_maximizers >= 100, tied_maximizers
    assert all(kinds[kind] >= 20 for kind in (
        "weak", "min-like", "max-like", "generic", "rational", "tie", "parallel",
        "no_edges", "at_bound", "over_bound", "bad_mode")), kinds


def _canonical_max_stable(inst, mode, bound):
    """The oracle as one canonical-order loop: every leaf larger than the
    best stable one so far is tested, and the first stable leaf of the
    largest size is the witness."""
    walk = engine._Assignments(inst, bound, mode)
    best, witness = -1, None
    for halves in walk:
        if halves > best and not walk.blocked():
            best, witness = halves, walk.matching()
    return F(best, 2), witness


@pytest.fixture
def blocked_calls(monkeypatch):
    """A list that grows by one at each blocking test of an assignment."""
    calls, real = [], engine._Assignments.blocked
    monkeypatch.setattr(engine._Assignments, "blocked", lambda self: calls.append(1) or real(self))
    return calls


def test_largest_first_search_matches_the_canonical_loop(blocked_calls):
    """Past the generic oracle's 6 edges: weak and gamma markets of 7 to 12
    edges give the loop's maximum and witness, down to the shared ``HALF``
    and ``ONE`` objects, with no more blocking tests than the loop."""
    rng = random.Random(1989)
    kinds = Counter()
    tests = {"loop": 0, "search": 0}
    for seed in range(400):
        inst = generate_random(seed, rng.randint(6, 9), edge_density=rng.uniform(0.25, 0.5),
                               parallel_prob=0.1, tie_prob=rng.choice([0, 0.4]),
                               gamma_preset="generic")
        k = len(inst.edges)
        if not 7 <= k <= 12:
            continue
        for mode in ("weak", "gamma"):
            blocked_calls.clear()
            want = _canonical_max_stable(inst, mode, 12)
            loop = len(blocked_calls)
            blocked_calls.clear()
            got = brute_force_max_stable(inst, mode)
            assert got == want, (seed, mode)
            assert list(got[1].items()) == list(want[1].items())
            assert all(a is b for a, b in zip(got[1].values(), want[1].values()))
            assert len(blocked_calls) <= loop, (seed, mode)
            tests["loop"] += loop
            tests["search"] += len(blocked_calls)
            kinds[k] += 1
            kinds[mode] += 1
            kinds["tie"] += not inst.is_strict()
            kinds["half"] += want[0].denominator == 2
    assert all(kinds[k] >= 20 for k in range(7, 13)), kinds
    assert kinds["tie"] >= 50 and kinds["half"] >= 20, kinds
    assert tests["search"] * 5 < tests["loop"], tests


def test_largest_first_search_tests_one_leaf_of_twelve_disjoint_edges(blocked_calls):
    # 3^12 = 531,441 leaves, and the all-ONE one, canonically the last, is
    # the only stable one: the canonical loop tests every leaf, the search
    # only the one of the largest size. Each leaf is held in 13 bytes
    vertices = [f"v{i:02d}" for i in range(24)]
    edges = [(f"e{i:02d}", vertices[2 * i], vertices[2 * i + 1]) for i in range(12)]
    inst = validate_instance(vertices, edges, {v: {eid: 1} for eid, *ends in edges for v in ends})
    tracemalloc.start()
    try:
        size, witness = brute_force_max_stable(inst)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert size == 12 and list(witness) == [eid for eid, _, _ in edges]
    assert all(val is ONE for val in witness.values())
    assert len(blocked_calls) == 1
    assert peak < 10 * 2**20, peak


def test_oracle_failure_exits_1_without_a_traceback():
    """The oracle's "cannot happen" raise is a VerificationFailed, which the
    CLI reports with exit 1: here every assignment is made to block."""
    script = textwrap.dedent("""
        import sys
        from halfmatch import cli, engine

        engine._Assignments.blocked = lambda self: True
        sys.exit(cli.main(["bench", "--seeds", "1", "--n", "4"]))
    """)
    src = os.path.dirname(os.path.dirname(os.path.abspath(halfmatch.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    run = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 1, run.stderr
    assert "no stable half-matching found" in run.stderr
    assert "Traceback" not in run.stderr


def test_engine_single_edge(single_edge):
    cert = stable_half_matching(single_edge)
    assert cert.matching == {"e": ONE}
    assert cert.odd_cycles == ()


def test_engine_triangle(cyclic_triangle):
    cert = stable_half_matching(cyclic_triangle)
    assert cert.matching == {"ab": HALF, "bc": HALF, "ca": HALF}
    assert len(cert.odd_cycles) == 1
    verts, eids = cert.odd_cycles[0]
    assert set(verts) == {"a", "b", "c"} and set(eids) == {"ab", "bc", "ca"}


def test_engine_path():
    cert = stable_half_matching(make_path("a"))
    assert cert.matching == {"ab": ONE}


def test_engine_requires_strict():
    tied = validate_instance(
        ["a", "b", "c"],
        [("ab", "a", "b"), ("bc", "b", "c")],
        pref={"a": {"ab": 1}, "b": {"ab": 1, "bc": 1}, "c": {"bc": 1}},
    )
    with pytest.raises(Exception, match="strict"):
        stable_half_matching(tied)


def test_engine_parallel_edges():
    # two agents with two contracts ranked oppositely: a settled pair
    inst = validate_instance(
        ["a", "b"],
        [("e1", "a", "b"), ("e2", "a", "b")],
        pref={"a": {"e1": 2, "e2": 1}, "b": {"e1": 1, "e2": 2}},
    )
    cert = stable_half_matching(inst)
    assert matching_size(cert.matching) == 1
    assert blocking_edges(inst, cert.matching) == []


def random_strict(seed, n, density=0.6, parallel=0.25):
    return generate_random(
        seed, n, edge_density=density, parallel_prob=parallel, tie_prob=0.0
    )


def test_engine_agrees_with_oracle_on_random_instances():
    checked = 0
    for seed in range(160):
        inst = random_strict(seed, 4 + seed % 4, density=0.45, parallel=0.2)
        if len(inst.edges) > 8:
            continue
        cert = stable_half_matching(inst)
        stable_set = list(iter_stable_half_matchings(inst, bound=8))
        assert cert.matching in stable_set, f"seed {seed}"
        checked += 1
    assert checked >= 60  # enough small instances actually exercised


def test_engine_output_is_stable_on_larger_instances():
    for seed in range(120):
        inst = random_strict(seed, 6 + seed % 7, density=0.5, parallel=0.2)
        cert = stable_half_matching(inst)
        assert blocking_edges(inst, cert.matching) == [], f"seed {seed}"


def test_engine_support_is_pairs_and_odd_cycles_only():
    cycles = 0
    for seed in range(80):
        inst = random_strict(seed, 5 + seed % 6)
        cert = stable_half_matching(inst)
        halves: dict[str, list[str]] = {}  # vertex -> its 1/2-edges
        for eid, val in cert.matching.items():
            if val == HALF:
                e = inst.edge(eid)
                halves.setdefault(e.u, []).append(eid)
                halves.setdefault(e.v, []).append(eid)
        assert all(len(ids) == 2 for ids in halves.values()), (
            f"seed {seed}: engine emitted a half-path"
        )
        seen: set[str] = set()
        for start in halves:
            if start in seen:
                continue
            component, todo = {start}, [start]
            while todo:
                v = todo.pop()
                for eid in halves[v]:
                    x = materialized.other(inst, eid, v)
                    if x not in component:
                        component.add(x)
                        todo.append(x)
            seen |= component
            assert len(component) % 2 == 1, f"seed {seed}: even half-cycle survived"
            cycles += 1
    assert cycles >= 5  # enough half-cycles actually exercised


def test_engine_integral_on_bipartite():
    for seed in range(80):
        inst = generate_random(
            seed, 6 + seed % 5, edge_density=0.7, parallel_prob=0.2, bipartite=True
        )
        cert = stable_half_matching(inst)
        assert all(v == ONE for v in cert.matching.values()), f"seed {seed}"


def test_engine_deterministic():
    for seed in (3, 17):
        inst = random_strict(seed, 7)
        again = random_strict(seed, 7)
        assert stable_half_matching(inst).matching == stable_half_matching(again).matching


def test_generator_deterministic_and_tie_free():
    a = generate_random(1, 8, edge_density=0.5, parallel_prob=0.3, tie_prob=0.4)
    b = generate_random(1, 8, edge_density=0.5, parallel_prob=0.3, tie_prob=0.4)
    assert a.edges == b.edges and a.pref == b.pref
    strict = generate_random(2, 8, tie_prob=0.0)
    assert strict.is_strict()


def test_generator_gamma_presets_respect_gap_regimes():
    for seed in range(8):
        close = generate_random(seed, 6, edge_density=0.7, gamma_preset="min-like")
        gap = F(1)  # canonical valuations are integers per tie class
        for gam, delta in (close.gamma or {}).values():
            assert delta - gam < gap / 2
        loose = generate_random(seed, 6, edge_density=0.7, gamma_preset="max-like")
        for gam, delta in (loose.gamma or {}).values():
            assert gam < gap  # any strict improvement clears gamma
        generic = generate_random(seed, 6, edge_density=0.7, gamma_preset="generic")
        for gam, delta in (generic.gamma or {}).values():
            assert 0 < gam < delta


def test_engine_postcondition_raises_under_optimize():
    # python -O strips assert statements; the engine's certificate is the
    # only stability check on a derived market, so it must survive -O
    script = textwrap.dedent("""
        import halfmatch.engine as engine
        from halfmatch import VerificationFailed
        from halfmatch.core import validate_instance

        assert False, "-O must strip this"
        inst = validate_instance(["a", "b"], [("e", "a", "b")],
                                 pref={"a": {"e": 1}, "b": {"e": 1}})
        engine._blocked = lambda *args, **kwargs: [0]
        try:
            engine.stable_half_matching(inst)
        except VerificationFailed as exc:
            print("raised:", exc)
    """)
    src = os.path.dirname(os.path.dirname(os.path.abspath(halfmatch.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    run = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "raised: engine produced a blocked matching\n"


def test_verification_failed_is_one_class():
    from halfmatch import core, solvers

    assert halfmatch.VerificationFailed is core.VerificationFailed
    assert solvers.VerificationFailed is core.VerificationFailed


# -- the list-based court as an oracle -------------------------------------------
#
# The engine once kept every preference list as a Python list of edge ids
# (O(list length) per deletion and acceptance). It is kept here unchanged:
# the integer-indexed engine must reach the same final lists on every market.


class _Court:
    """Mutable proposal state over strict preference lists."""

    def __init__(self, inst: Instance):
        self.inst = inst
        self.lists: dict[str, list[str]] = {
            v: inst.strict_order(v) for v in inst.vertices
        }
        self.held: dict[str, str | None] = {v: None for v in inst.vertices}
        self.accepted: dict[str, bool] = {v: False for v in inst.vertices}
        self.queue: deque[str] = deque(v for v in inst.vertices if self.lists[v])

    def delete(self, eid: str) -> None:
        """Remove an edge from both endpoint lists, freeing any proposer."""
        edge = self.inst.edge(eid)
        for x in (edge.u, edge.v):
            lst = self.lists[x]
            if eid not in lst:
                return  # already gone (deletions are always two-sided)
            was_first = lst[0] == eid
            lst.remove(eid)
            if self.held[x] == eid:
                self.held[x] = None
            if was_first:
                self.accepted[x] = False
            if not self.accepted[x] and lst:
                self.queue.append(x)

    def cascade(self) -> None:
        """Run proposals until every agent with a nonempty list is accepted."""
        while self.queue:
            v = self.queue.popleft()
            if self.accepted[v] or not self.lists[v]:
                continue
            eid = self.lists[v][0]
            w = materialized.other(self.inst, eid, v)
            h = self.held[w]
            if h == eid:
                self.accepted[v] = True
                continue
            if h is None or self.inst.pref[w][eid] > self.inst.pref[w][h]:
                self.accepted[v] = True
                self.held[w] = eid
                tail = self.lists[w][self.lists[w].index(eid) + 1:]
                for g in tail:
                    self.delete(g)
            else:
                self.delete(eid)

    def find_rotation(self) -> list[tuple[str, str, str]]:
        """Walk second/last pointers from a length>=3 list to a cycle.

        Returns the cyclic part as (agent, its second entry, acceptor)
        triples. The walk can never enter a cycle whose members all have
        length-two lists, so eliminating the result never destroys a
        settled half-cycle.
        """
        start = next(v for v in self.inst.vertices if len(self.lists[v]) >= 3)
        seq: list[tuple[str, str, str]] = []
        pos: dict[str, int] = {}
        x = start
        while x not in pos:
            pos[x] = len(seq)
            if len(self.lists[x]) < 2:
                raise VerificationFailed(f"rotation walk meets a short list at {x!r}")
            second = self.lists[x][1]
            y = materialized.other(self.inst, second, x)
            if len(self.lists[y]) < 2:
                raise VerificationFailed(f"rotation walk meets a short list at {y!r}")
            last = self.lists[y][-1]
            seq.append((x, second, y))
            x = materialized.other(self.inst, last, y)
        return seq[pos[x]:]

    def eliminate(self, rotation: list[tuple[str, str, str]]) -> None:
        """Drop everything below the rotation's improved proposals, as a batch."""
        doomed: set[str] = set()
        for _, second, y in rotation:
            tail = self.lists[y][self.lists[y].index(second) + 1:]
            doomed.update(tail)
        if not doomed:
            raise VerificationFailed("rotation eliminates nothing")
        for g in sorted(doomed):
            self.delete(g)


def oracle_lists(inst: Instance, sizes: list[int] | None = None) -> dict[str, list[str]]:
    """The court's final lists; each rotation's member count goes to ``sizes``."""
    court = _Court(inst)
    court.cascade()
    while any(len(court.lists[v]) >= 3 for v in inst.vertices):
        rotation = court.find_rotation()
        if sizes is not None:
            sizes.append(len(rotation))
        court.eliminate(rotation)
        court.cascade()
    return court.lists


def assert_matches_oracle(der, label: str, sizes: list[int] | None = None) -> None:
    """The engine on a compact market reaches the list court's final lists
    on its materialized twin, and so does the explicit-deletion engine."""
    inst = materialize(der)
    lists = oracle_lists(inst, sizes)
    assert materialized._reduce(inst) == lists, label
    market = der.inst
    pu, pv = _positions(market)
    got = _reduce(market, pu, pv)
    names = market.copy_id
    assert {v: [names(c) for c in got[x]] for x, v in enumerate(market.vertices)} == lists, label
    index = {names(c): c for c in market.edges}
    court = [[index[cid] for cid in lists[v]] for v in market.vertices]
    assert stable_half_matching(market) == _partition(market, court, pu, pv), label


def test_engine_matches_the_list_court_on_derived_markets():
    markets = 0
    for seed in range(40):
        n = 4 + seed % 20
        tied = generate_random(seed, n, edge_density=0.4, parallel_prob=0.25,
                               tie_prob=0.3, gamma_preset="generic")
        strict = generate_random(seed, n, edge_density=0.4, parallel_prob=0.25,
                                 critical_count=seed % (n + 1))
        for kind, der in (
            ("srti", build_srti_reduction(tied)),
            ("gamma", build_gamma_reduction(tied)),
            ("pri", build_pri_reduction(strict)),
            ("crit", build_crit_reduction(strict, strict.critical)),
            ("crit-all", build_crit_reduction(strict, frozenset(strict.vertices))),
        ):
            assert_matches_oracle(der, f"{kind} seed {seed} n {n}")
            markets += 1
    assert markets >= 150


def test_engine_matches_the_list_court_on_a_large_crit_market():
    # every vertex critical at n=34: 1 + 2n copies per edge, as in the
    # unit-weight maxw requests of the benchmark
    inst = generate_random(34, 34, edge_density=0.3)
    der = build_crit_reduction(inst, frozenset(inst.vertices))
    assert len(der.inst.edges) >= 9000
    assert_matches_oracle(der, "crit-all n 34")


def test_engine_matches_the_list_court_on_maxw_markets():
    # the crit markets solve_pop_maxw builds: the dual's tight edges, with
    # every positive-potential vertex critical. The engine eliminates every
    # rotation in place. Most rotations have one member on instance weights,
    # and two or more on unit weights, where every vertex is critical
    def check(inst, weights, label, sizes):
        dual = max_weight_dual(inst, weights)
        tight = set(dual.tight_edges)
        der = build_crit_reduction(inst, dual.critical, [e.eid in tight for e in inst.edges])
        assert_matches_oracle(der, label, sizes)

    sizes: list[int] = []
    for seed, n in enumerate(range(40, 111, 5)):
        inst = generate_random(seed, n, edge_density=0.3, weight_range=(1, 9))
        check(inst, inst.weights, f"maxw seed {seed} n {n}", sizes)
    assert sizes.count(1) >= 0.8 * len(sizes)
    assert len(sizes) - sizes.count(1) >= 100
    unit: list[int] = []
    for seed, n in enumerate((29, 32, 35, 38)):
        inst = generate_random(seed, n, edge_density=0.3)
        check(inst, {e.eid: ONE for e in inst.edges}, f"unit maxw seed {seed} n {n}", unit)
    assert len(unit) - unit.count(1) >= 0.5 * len(unit)
    assert len(unit) >= 1000


def test_kept_walk_matches_the_restarting_walk():
    # the walk keeps its path across eliminations, cut below the step before
    # the rotation and below the first step whose x is one of the rotation's
    # y's; a walk that restarts from the first long list after every
    # elimination must reach the same lists. The second cut must matter
    # often: the count is of rotations on which it falls below the first
    markets = cuts = 0
    for seed in range(210):
        n = 4 + seed % 30
        tied = generate_random(seed, n, edge_density=0.4, parallel_prob=0.25,
                               tie_prob=0.3, gamma_preset="generic")
        strict = generate_random(seed, n, edge_density=0.4, parallel_prob=0.25,
                                 critical_count=seed % (n + 1))
        for kind, der in (
            ("srti", build_srti_reduction(tied)),
            ("gamma", build_gamma_reduction(tied)),
            ("pri", build_pri_reduction(strict)),
            ("crit", build_crit_reduction(strict, strict.critical)),
            ("crit-half", build_crit_reduction(strict, strict.vertices[::2])),
        ):
            market = der.inst
            pu, pv = _positions(market)
            want, cut = materialized.restarting_reduce(market, pu, pv)
            assert _reduce(market, pu, pv) == want, f"{kind} seed {seed} n {n}"
            markets += 1
            cuts += cut
    assert markets >= 1000
    assert cuts >= 1000


def test_engine_raises_the_list_courts_tie_message():
    tied = generate_random(5, 9, edge_density=0.6, tie_prob=0.5)
    with pytest.raises(InstanceError) as want:
        oracle_lists(tied)
    with pytest.raises(InstanceError) as got:
        stable_half_matching(tied)
    assert str(got.value) == str(want.value)
    assert str(got.value).startswith("strict preferences required: vertex ")


# -- the certificate on positions ------------------------------------------------


def _halves(market, m):
    index = {market.copy_id(c): c for c in market.edges}
    return {index[cid]: int(2 * val) for cid, val in m.items()}


def test_certificate_agrees_with_weak_blocking_edges():
    # engine outputs, then seeded perturbations of them: held copies dropped
    # (still half-matchings) or values 0, 1/2 or 1 put on random copies
    # (mostly overfull)
    rng = random.Random(1313)
    outputs = perturbed = blocked = overfull = 0
    for seed in range(40):
        n = 4 + seed % 9
        tied = generate_random(seed, n, edge_density=0.5, parallel_prob=0.3,
                               tie_prob=0.4, gamma_preset="generic")
        strict = generate_random(seed, n, edge_density=0.5, parallel_prob=0.3,
                                 critical_count=seed % (n + 1))
        for der in (build_srti_reduction(tied), build_gamma_reduction(tied),
                    build_pri_reduction(strict),
                    build_crit_reduction(strict, strict.critical)):
            market, inst = der.inst, materialize(der)
            pu, pv = _positions(market)
            m = stable_half_matching(market).matching
            trials = [m]
            for k in range(6):
                rival = dict(m)
                if k % 2:
                    for c in rng.sample(range(len(market.edges)), min(3, len(market.edges))):
                        rival[market.copy_id(c)] = rng.choice((F(0), HALF, ONE))
                else:
                    rival.update(dict.fromkeys(rng.sample(sorted(m), min(2, len(m))), F(0)))
                trials.append(rival)
            for k, trial in enumerate(trials):
                got = sorted(map(market.copy_id, _blocked(market, _halves(market, trial),
                                                          pu, pv)))
                want = blocking_edges(inst, trial, "weak")
                assert got == want, (seed, k)
                outputs += k == 0
                perturbed += k > 0
                blocked += bool(want)
                overfull += any(vertex_load(inst, trial, v) > 1 for v in inst.vertices)
    assert outputs == 160 and perturbed == 960
    assert blocked >= 300 and 200 <= overfull <= 800


def _path_market(orders):
    """Vertices a, b, c; copy 0 joins a and b, copy 1 joins b and c."""
    return CopyMarket(("a", "b", "c"), [0, 1], [1, 2], orders, [0, 1], ("ab", "bc"),
                      ["", ""])


@pytest.mark.parametrize("orders, culprit", [
    ([[0], [0], [1]], "'b'"),                 # b omits copy 1
    ([[0], [1, 0, 1], [1]], "'b'"),           # b lists copy 1 twice
    ([[0, 1], [1, 0], [1]], "'a'"),           # copy 1 does not touch a
    ([[0], [1, 0], []], "'c'"),               # c lists nothing
])
def test_engine_rejects_an_order_that_misses_its_copies(orders, culprit):
    with pytest.raises(VerificationFailed, match=culprit):
        stable_half_matching(_path_market(orders))
    assert stable_half_matching(_path_market([[0], [1, 0], [1]])).matching == {"bc": ONE}


def test_positions_share_one_int_per_position_past_the_small_int_cache():
    # 300 parallel copies of one edge, a ranking them 0..299 and b the reverse:
    # positions above 256 are not cached ints, and both ends draw on one list
    k = 300
    market = CopyMarket(("a", "b"), [0] * k, [1] * k, [list(range(k)), list(range(k))[::-1]],
                        [0] * k, ("ab",), [f"~{c}" for c in range(k)])
    pu, pv = _positions(market)
    at = [dict(map(reversed, enumerate(o))) for o in market.orders]  # copy -> position
    assert pu == [at[0][c] for c in market.edges] and pv == [at[1][c] for c in market.edges]
    assert pv == pu[::-1]
    assert len(set(map(id, pu + pv))) <= max(map(len, market.orders)) == k
    for vertices in (("a", "b"), ()):
        edgeless = CopyMarket(vertices, [], [], [[] for _ in vertices], [], (), [])
        assert _positions(edgeless) == ([], [])


@pytest.mark.parametrize("eu, ev, orders, walked, message", [
    ([0, 0, 0, 1], [1, 2, 2, 2], [[0, 1, 2], [0, 3], [2, 1, 3]], [[0, 1, 2], [3, 0], [2, 1, 3]],
     "rotation walk meets a short list at 'b'"),
    ([1, 1, 1], [2, 0, 2], [[1], [0, 1, 2], [2, 0]], [[1], [2, 0, 1], [2, 0]],
     "rotation walk meets a short list at 'a'"),
    ([1, 1, 0, 2], [2, 0, 1, 1], [[2, 1], [2, 0, 3, 1], [3, 0]], [[1, 2], [2, 0, 3, 1], [3, 0]],
     "rotation eliminates nothing"),
])
def test_the_rotation_walk_refuses_positions_of_other_orders(eu, ev, orders, walked, message):
    # the positions are taken from ``orders``, which the engine solves, and
    # the walk reads ``walked``, one vertex's order reshuffled: it meets lists
    # shorter than its positions say, or a rotation whose second entries sit
    # at or past their acceptors' tails. The checks raise, under python -O too
    market = CopyMarket(("a", "b", "c"), eu, ev, orders, range(len(eu)),
                        [f"e{c}" for c in range(len(eu))], [""] * len(eu))
    pu, pv = _positions(market)
    stable_half_matching(market)
    with pytest.raises(VerificationFailed, match=message):
        _reduce(dataclasses.replace(market, orders=walked), pu, pv)


@pytest.mark.parametrize("lists, message", [
    ([[0], [], [1, 2]], "singleton list of 'a' is not mirrored"),
    ([[0, 2], [0, 1, 3], [1, 2]], "courting cycle meets 'b' with a long list"),
])
def test_the_partition_refuses_lists_no_reduction_leaves(lists, message):
    # a triangle with a second copy of bc: a one-entry list names a partner
    # whose list is other, or a courting cycle meets a list of three
    market = CopyMarket(("a", "b", "c"), [0, 1, 2, 1], [1, 2, 0, 2],
                        [[0, 2], [0, 1, 3], [1, 2, 3]], [0, 1, 2, 1], ("ab", "bc", "ca"),
                        ["", "", "", "~2"])
    pu, pv = _positions(market)
    with pytest.raises(VerificationFailed, match=message):
        _partition(market, lists, pu, pv)
