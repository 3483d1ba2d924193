import itertools
import random
from fractions import Fraction
from functools import partial

import pytest

from halfmatch import simplex
from halfmatch.engine import enumerate_half_matchings
from halfmatch.generate import generate_random
from halfmatch.popularity import delta_sensible
from halfmatch.simplex import Infeasible, Unbounded, solve_min

from conftest import sparse

F = Fraction


def test_simple_minimum():
    # min x + 2y st x + y = 3, x <= 2 (as x + s = 2)
    x, val = solve_min(
        [F(1), F(2), F(0)],
        sparse([[F(1), F(1), F(0)], [F(1), F(0), F(1)]]),
        [F(3), F(2)],
    )
    assert val == 4 and x[0] == 2 and x[1] == 1


def test_degenerate_and_negative_rhs():
    # rows may arrive with negative right-hand sides
    x, val = solve_min(
        [F(1), F(1)],
        sparse([[F(-1), F(-1)]]),
        [F(-2)],
    )
    assert val == 2 and x[0] + x[1] == 2


def test_infeasible():
    with pytest.raises(Infeasible):
        solve_min([F(1)], sparse([[F(1)], [F(1)]]), [F(1), F(2)])


def test_unbounded():
    # min -x st x - y = 0: x can grow forever
    with pytest.raises(Unbounded):
        solve_min([F(-1), F(0)], sparse([[F(1), F(-1)]]), [F(0)])


def test_fractional_optimum_exact():
    # min -x - y st 2x + y = 1, x + 2y = 1 -> x = y = 1/3
    x, val = solve_min(
        [F(-1), F(-1)],
        sparse([[F(2), F(1)], [F(1), F(2)]]),
        [F(1), F(1)],
    )
    assert x == [F(1, 3), F(1, 3)] and val == F(-2, 3)


def test_redundant_row_is_tolerated():
    x, val = solve_min(
        [F(1), F(1)],
        sparse([[F(1), F(1)], [F(2), F(2)]]),
        [F(1), F(2)],
    )
    assert val == 1


@pytest.mark.parametrize("rows, rhs", [
    ([{2: F(1)}], [F(1)]),  # a column past the last cost
    ([{-1: F(1)}], [F(1)]),
    ([{0: F(1)}], [F(1), F(2)]),  # one rhs too many
])
def test_rows_name_columns_of_the_program(rows, rhs):
    with pytest.raises(ValueError, match="inconsistent LP dimensions"):
        solve_min([F(1), F(1)], rows, rhs)


# ---------------------------------------------------------------------------
# the integer tableau against a dense Fraction tableau


def _fraction_tableau(costs, rows, rhs, pivots=None):
    """Reference oracle: the same two-phase Bland simplex on a Fraction tableau.

    Appends each pivot (row, column) to pivots when a list is given.
    """
    pivots = [] if pivots is None else pivots
    m, n = len(rows), len(costs)
    if any(len(r) != n for r in rows) or len(rhs) != m:
        raise ValueError("inconsistent LP dimensions")
    tableau = []
    for i in range(m):
        row, bi = list(rows[i]), rhs[i]
        if bi < 0:
            row, bi = [-x for x in row], -bi
        art = [F(0)] * m
        art[i] = F(1)
        tableau.append(row + art + [bi])
    basis = list(range(n, n + m))
    width = n + m

    z = _fraction_objective(tableau, basis, [F(0)] * n + [F(1)] * m, width)
    _fraction_iterate(tableau, basis, z, width, width, pivots)
    if z[width] != 0:
        raise Infeasible("no feasible point")
    for i in range(m):
        if basis[i] >= n:
            col = next((j for j in range(n) if tableau[i][j] != 0), None)
            if col is not None:
                _fraction_pivot(tableau, basis, i, col, z, width, pivots)
    z = _fraction_objective(tableau, basis, list(costs) + [F(0)] * m, width)
    _fraction_iterate(tableau, basis, z, width, n, pivots)

    x = [F(0)] * n
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = tableau[i][width]
    return x, sum((costs[j] * x[j] for j in range(n)), F(0))


def _fraction_objective(tableau, basis, costs, width):
    z = [sum((costs[basis[i]] * row[j] for i, row in enumerate(tableau)), F(0))
         for j in range(width + 1)]
    for j in range(width):
        z[j] -= costs[j]
    return z


def _fraction_iterate(tableau, basis, z, width, cols, pivots):
    while True:
        enter = next((j for j in range(cols) if z[j] > 0), None)
        if enter is None:
            return
        best = None
        for i, row in enumerate(tableau):
            if row[enter] > 0:
                key = (row[width] / row[enter], basis[i])
                if best is None or key < best[0]:
                    best = (key, i)
        if best is None:
            raise Unbounded("objective unbounded below")
        _fraction_pivot(tableau, basis, best[1], enter, z, width, pivots)


def _fraction_pivot(tableau, basis, row, col, z, width, pivots):
    pivots.append((row, col))
    piv = tableau[row][col]
    tableau[row] = [x / piv for x in tableau[row]]
    for i in range(len(tableau)):
        if i != row and tableau[i][col] != 0:
            f = tableau[i][col]
            tableau[i] = [a - f * p for a, p in zip(tableau[i], tableau[row])]
    f = z[col]
    for j in range(width + 1):
        z[j] -= f * tableau[row][j]
    basis[row] = col


def _outcome(solver, costs, rows, rhs):
    try:
        return solver(costs, rows, rhs)
    except (Infeasible, Unbounded) as exc:
        return type(exc)


def _random_entry(rng):
    r = rng.random()
    if r < 0.35:
        return F(0)
    if r < 0.8:
        return F(rng.randint(-3, 3))
    return F(rng.randint(-6, 6), rng.randint(1, 5))


def _random_lp(rng):
    m, n = rng.randint(1, 6), rng.randint(1, 8)
    rows = [[_random_entry(rng) for _ in range(n)] for _ in range(m)]
    if rng.random() < 0.6:  # feasible by construction: rhs = rows * x0, x0 >= 0
        x0 = [F(rng.randint(0, 3)) if rng.random() < 0.6 else F(0) for _ in range(n)]
        rhs = [sum((a * x for a, x in zip(row, x0)), F(0)) for row in rows]
    else:
        rhs = [_random_entry(rng) for _ in range(m)]
    redundant = rng.random() < 0.3
    if redundant:  # a duplicated or scaled copy of a row
        i = rng.randrange(m)
        k = rng.choice([F(1), F(-1), F(2), F(1, 2)])
        rows.append([k * a for a in rows[i]])
        rhs.append(k * rhs[i])
    return [_random_entry(rng) for _ in range(n)], rows, rhs, redundant


def _record_pivots(monkeypatch, forms=None):
    """Record every (row, column, entry) the integer tableau pivots on.

    After each pivot no row may store a zero and every denominator must be
    positive. Each pivot whose entry over the current D is D or -D, where
    only the pivot row's columns move, counts in forms["pivot equal to D"]
    and every other pivot in forms["pivot unequal to D"].
    """
    pivots = []
    real_pivot = simplex._Tableau.pivot

    def spy(lp, r, c, z):
        pivots.append((r, c, lp.rows[r][c]))
        if forms is not None:
            equal = abs(lp.current(r)[c]) == lp.d
            forms["pivot equal to D" if equal else "pivot unequal to D"] += 1
        real_pivot(lp, r, c, z)
        assert lp.d > 0
        assert all(a != 0 for row in lp.rows for a in row.values())
        assert all(q > 0 for q in lp.den)

    monkeypatch.setattr(simplex._Tableau, "pivot", spy)
    return pivots


def _ints(values):
    """values with every integral Fraction given as an int."""
    return [int(a) if a.denominator == 1 else a for a in values]


def test_integer_tableau_matches_fraction_tableau_on_random_lps(monkeypatch):
    # same outcome and the same pivot sequence as the Fraction tableau, with
    # the entries given as Fractions and with the integral ones as ints; x
    # and the value come back as Fractions either way
    rng = random.Random(2409)
    seen = {"optimal": 0, Infeasible: 0, Unbounded: 0, "negative rhs": 0,
            "fractional": 0, "redundant": 0, "negative pivot": 0,
            "pivot equal to D": 0, "pivot unequal to D": 0}
    pivots = _record_pivots(monkeypatch, seen)
    for _ in range(2000):
        costs, rows, rhs, redundant = _random_lp(rng)
        want_pivots = []
        want = _outcome(partial(_fraction_tableau, pivots=want_pivots), costs, rows, rhs)
        for program in [(costs, rows, rhs),
                        (_ints(costs), [_ints(row) for row in rows], _ints(rhs))]:
            pivots.clear()
            got = _outcome(solve_min, program[0], sparse(program[1]), program[2])
            assert got == want, program
            if isinstance(got, tuple):
                x, value = got
                assert {type(a) for a in x + [value]} == {Fraction}, program
            assert [(r, c) for r, c, _ in pivots] == want_pivots, program
        seen["negative pivot"] += any(p < 0 for _, _, p in pivots)
        seen["optimal" if isinstance(want, tuple) else want] += 1
        seen["negative rhs"] += any(b < 0 for b in rhs)
        seen["fractional"] += any(a.denominator > 1 for row in rows for a in row)
        seen["redundant"] += redundant
    assert min(seen.values()) >= 100, seen


def test_explicit_zero_coefficients_change_nothing(monkeypatch):
    # an explicit zero is dropped as it is read: the first program's
    # all-zero row keeps its artificial basic, where a stored zero could be
    # taken as the leftover artificial's pivot
    pivots = _record_pivots(monkeypatch)
    programs = [([F(1), F(1)], [[F(0), F(0)], [F(1), F(1)]], [F(0), F(1)])]
    rng = random.Random(2410)
    programs += [_random_lp(rng)[:3] for _ in range(300)]
    zeros = 0
    for costs, rows, rhs in programs:
        pivots.clear()
        want = _outcome(solve_min, costs, sparse(rows), rhs)
        want_pivots = list(pivots)
        pivots.clear()
        explicit = [dict(enumerate(row)) for row in rows]
        zeros += any(a == 0 for row in explicit for a in row.values())
        assert _outcome(solve_min, costs, explicit, rhs) == want, (costs, rows, rhs)
        assert pivots == want_pivots, (costs, rows, rhs)
    assert zeros >= 200
    costs, rows, rhs = programs[0]
    assert solve_min(costs, [{0: F(0), 1: F(0)}, {0: F(1), 1: F(1)}], rhs) == (
        [F(1), F(0)], F(1))


def test_leftover_artificial_pivots_out_on_a_negative_entry(monkeypatch):
    # -x1 + x2 = 0 and x1 - x2 = 0 never enter phase 1, whose only pivot
    # brings in x3; the first artificial then leaves on the entry -1 of x1,
    # and the second stays basic in what has become an all-zero row
    costs = [F(1), F(1), F(1)]
    rows = [[F(-1), F(1), F(0)], [F(1), F(-1), F(0)], [F(0), F(0), F(1)]]
    rhs = [F(0), F(0), F(1)]
    pivots = _record_pivots(monkeypatch)
    assert solve_min(costs, sparse(rows), rhs) == ([F(0), F(0), F(1)], F(1))
    assert [(r, c) for r, c, _ in pivots] == [(2, 2), (0, 0)]
    assert pivots[1][2] < 0
    want_pivots = []
    assert _fraction_tableau(costs, rows, rhs, want_pivots) == ([F(0), F(0), F(1)], F(1))
    assert want_pivots == [(2, 2), (0, 0)]


def test_delta_sensible_matches_the_fraction_oracle(monkeypatch):
    inst = generate_random(17, 5, edge_density=0.5, parallel_prob=0.2)
    rivals = list(enumerate_half_matchings(inst, bound=5))
    # every 11th of the 1,521 pairs: the Fraction oracle needs about 50 ms
    # per program, so all of them would add over a minute to the suite
    pairs = list(itertools.product(rivals, repeat=2))[::11]
    assert len(pairs) >= 100
    got = [delta_sensible(inst, m, n) for m, n in pairs]
    densified = lambda costs, rows, rhs: _fraction_tableau(
        costs, [[row.get(j, F(0)) for j in range(len(costs))] for row in rows], rhs
    )
    monkeypatch.setattr(simplex, "solve_min", densified)
    want = [delta_sensible(inst, m, n) for m, n in pairs]
    assert got == want
