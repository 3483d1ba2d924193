"""A small exact linear-program solver over rationals.

Two-phase primal simplex on a sparse tableau with Bland's smallest-index
pivoting, which cannot cycle, so termination is guaranteed. Intended for
the desk-scale problems in this package (a few hundred variables), not
for serious LP work. Each constraint row comes as a map from column to
coefficient; an explicit zero is dropped as it is read.

Numbers enter as ints or Fractions and leave as Fractions, but the
tableau holds Python ints and pivots fraction-free (Edmonds 1967,
"Systems of distinct representatives and linear algebra"; Bareiss 1968,
"Sylvester's identity and multistep integer-preserving Gaussian
elimination"; the integer pivoting of Avis's lrs). The rows and
right-hand sides are scaled by the lcm of their denominators (an int's
is 1), so an int and the equal Fraction make the same tableau. Let D be
the last pivot element (1 at the start): D times the rational tableau is
then, up to one common sign, the integer matrix adj(B) * [A | b] of the
current basis B, and D is det(B) up to the same sign. A pivot on
p = T[r][c] keeps row r and replaces every other row by
(p*T[i] - T[i][c]*T[r]) / D, then sets D = p; Sylvester's identity makes
the division exact, so no gcd is ever taken and entries never outgrow
the minors of the input.

A row maps each column to its nonzero int, the right-hand side included,
and never stores a zero: an update runs over the union of its columns
and the pivot row's and drops what cancels. A row whose entry in the
pivot column is zero would only be multiplied by p/D; since those
factors telescope, such a row is left alone and remembers the D it was
last written over, its denominator, and is rescaled only when it becomes
the pivot row or enters an objective row. Every other row is updated by
(p*R[i] - R[i][c]*T[r]) / den[i], again exact. When p equals den[i], as
in the common case p = D = 1, that is R[i] - R[i][c]*T[r]/den[i], exact
term by term, so only the pivot row's columns change; the dense
objective row is updated the same way over D. A negative pivot, which
only the pivot-out of leftover artificials can choose, first negates its
row; that flips the common sign and keeps every denominator positive, so
a stored entry has the sign of the rational entry and the ratio test
compares by cross-multiplication. No float and no tolerance appears
anywhere.

Scaling the rows leaves the artificial columns at coefficient 1, which
rescales the artificial variables and the phase-1 objective by the same
positive factor; the phase-2 costs are scaled by the lcm of their
denominators. Positive rescaling keeps every sign Bland's rule reads and
the order of the ratios within each column. Sparse storage changes no
value, only which zeros are kept: an absent entry reads as zero, and the
least stored column of a row is its least nonzero one. So the pivot
sequence, and with it the returned basic solution, is exactly the one a
dense Fraction tableau would take.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Mapping

ZERO = Fraction(0)


class Infeasible(ValueError):
    """The constraint system admits no nonnegative solution."""


class Unbounded(ValueError):
    """The objective is unbounded below on the feasible region."""


def solve_min(
    costs: list[int | Fraction],
    rows: list[Mapping[int, int | Fraction]],
    rhs: list[int | Fraction],
) -> tuple[list[Fraction], Fraction]:
    """Minimize costs*x subject to rows*x = rhs, x >= 0.

    Each row maps a column in 0..len(costs)-1 to its coefficient, absent
    columns being zero. Every entry is an int or a Fraction; the two give
    the same pivots. Returns (x, value) at an optimal basic solution, as
    Fractions, the value read off the final objective row.
    """
    m, n = len(rows), len(costs)
    if len(rhs) != m or any(not 0 <= j < n for row in rows for j in row):
        raise ValueError("inconsistent LP dimensions")

    scale = lcm(*{a.denominator for row in rows for a in row.values()},
                *{b.denominator for b in rhs})
    width = n + m
    tableau = []
    for i, (row, b) in enumerate(zip(rows, rhs)):
        k = -scale if b < 0 else scale
        t = {j: a.numerator * (k // a.denominator)
             for j, a in (*row.items(), (width, b)) if a}
        t[n + i] = 1
        tableau.append(t)
    lp = _Tableau(tableau, list(range(n, width)))

    # phase 1: minimize the artificial mass
    z = lp.objective_row([0] * n + [1] * m)
    lp.iterate(z, width)
    if z[width] != 0:
        raise Infeasible("no feasible point")

    # pivot leftover artificials out of the basis where possible; any that
    # remain sit in redundant rows at value zero and are harmless
    for i in range(m):
        if lp.basis[i] >= n:
            col = min((j for j in lp.rows[i] if j < n), default=None)
            if col is not None:
                lp.pivot(i, col, None)

    # phase 2 on the real objective, artificial columns frozen
    cost_scale = lcm(*{c.denominator for c in costs})
    z = lp.objective_row([c.numerator * (cost_scale // c.denominator) for c in costs]
                         + [0] * m)
    lp.iterate(z, n)

    x = [ZERO] * n
    for i, j in enumerate(lp.basis):
        if j < n:
            x[j] = Fraction(lp.rows[i].get(width, 0), lp.den[i])
    # z's last entry is c_B x_B over D, in the scaled costs
    return x, Fraction(z[width], lp.d * cost_scale)


class _Tableau:
    """Integer rows R[i] over positive denominators den[i]: R[i] / den[i] is
    row i of the rational tableau, and R[i] * D / den[i] that row over D. Each
    R[i] maps a column to its nonzero entry, the last column holding b."""

    def __init__(self, rows, basis):
        self.rows = rows
        self.den = [1] * len(rows)
        self.basis = basis
        self.d = 1

    def current(self, i):
        """Row i over the current D."""
        row, q, d = self.rows[i], self.den[i], self.d
        return row if q == d else {j: a * d // q for j, a in row.items()}

    def objective_row(self, costs):
        """The reduced-cost row c_B B^-1 [A | b] - [c | 0], over D, as a list."""
        z = [-self.d * c for c in costs] + [0]
        for i in range(len(self.rows)):
            cb = costs[self.basis[i]]
            if cb:
                for j, a in self.current(i).items():
                    z[j] += cb * a
        return z

    def iterate(self, z, cols):
        """Bland's rule over the first cols columns until z shows optimality."""
        width = len(z) - 1
        rows, basis = self.rows, self.basis
        while True:
            enter = next((j for j in range(cols) if z[j] > 0), None)
            if enter is None:
                return
            best = None
            for i, row in enumerate(rows):
                a = row.get(enter, 0)
                if a > 0:
                    if best is None:
                        best = i
                        continue
                    # row[width] / a against the best row's ratio; both
                    # ratios are free of the rows' denominators
                    here = row.get(width, 0) * rows[best][enter]
                    there = rows[best].get(width, 0) * a
                    if here < there or (here == there and basis[i] < basis[best]):
                        best = i
            if best is None:
                raise Unbounded("objective unbounded below")
            self.pivot(best, enter, z)

    def pivot(self, r, c, z):
        """Fraction-free pivot on entry (r, c); updates z, kept over D, unless None."""
        pr = self.current(r)
        if pr[c] < 0:
            pr = {j: -a for j, a in pr.items()}
        p, d = pr[c], self.d
        rows, den = self.rows, self.den
        for i, row in enumerate(rows):
            f = row.get(c)
            if f and i != r:
                q = den[i]
                if p == q:  # R[i] - f*T[r]/q: only T[r]'s columns move
                    for j, b in pr.items():
                        a = row.get(j, 0) - f * b // q
                        if a:
                            row[j] = a
                        else:
                            del row[j]
                    continue
                new = {j: p * a // q for j, a in row.items() if j not in pr}
                for j, b in pr.items():
                    a = (p * row.get(j, 0) - f * b) // q
                    if a:
                        new[j] = a
                rows[i] = new
                den[i] = p
        rows[r] = pr
        den[r] = p
        if z is not None:
            f = z[c]
            if p == d:
                for j, b in pr.items():
                    z[j] -= f * b // d
            else:
                z[:] = [(p * a - f * pr.get(j, 0)) // d for j, a in enumerate(z)]
        self.basis[r] = c
        self.d = p
