#!/usr/bin/env python3
"""Chebyshev tables of J_{-1/4} and J_{3/4}, the Bessel orders of the NEW eigenstates.

qarrival.numerics evaluates two tables by Clenshaw's recurrence, each with one
column per order nu = -1/4, 3/4:

- low table, z < 10: f_nu(u) = z^(-nu) J_nu(z), an entire function of
  u = (z/10)^2 (DLMF 10.2.2), fitted on z in [0, 12], x = u/0.72 - 1;
- high table, z >= 10: the Hankel modulation P + iQ = sqrt(pi z/2) e^(-i omega)
  H1_nu(z), omega = z - nu pi/2 - pi/4 (DLMF 10.17), smooth in w = 10/z and
  fitted on w in [0, 1.25] (z >= 8), x = 16/z - 1.

Both fits overlap on z in [8, 12], where the `bessel_branch_window` check
compares them.  Each function is interpolated at NODES Chebyshev points of the
first kind with mpmath at DPS digits, the DCT is taken in mpmath too, and only
the leading LOW_TERMS / HIGH_TERMS coefficients are rounded to double; the
next coefficient is below 2e-16 in both tables.

Run from the repository root to print the literals of numerics.py:

    python3 tools/bessel_tables.py

The test suite reruns `tables()` and checks that the committed literals match
bitwise.  qarrival never imports this file; it needs mpmath.
"""

from __future__ import annotations

import mpmath as mp

DPS = 40
NODES = 32
LOW_TERMS = 20
HIGH_TERMS = 14
ORDERS = ("-0.25", "0.75")


def _chebyshev_coefficients(f, terms: int) -> list:
    """Leading coefficients c_k of the interpolant sum_k c_k T_k(x) of f at NODES points."""
    theta = [mp.pi * (j + mp.mpf(1) / 2) / NODES for j in range(NODES)]
    values = [f(mp.cos(t)) for t in theta]
    coefs = []
    for k in range(terms):
        c = mp.fsum(v * mp.cos(k * t) for v, t in zip(values, theta)) * 2 / NODES
        coefs.append(c / 2 if k == 0 else c)
    return coefs


def _low(nu):
    def f(x):
        z = 10 * mp.sqrt(mp.mpf("0.72") * (x + 1))
        return mp.besselj(nu, z) / z**nu

    return f


def _high(nu):
    def f(x):
        z = 16 / (x + 1)
        omega = z - nu * mp.pi / 2 - mp.pi / 4
        return mp.sqrt(mp.pi * z / 2) * mp.expj(-omega) * mp.hankel1(nu, z)

    return f


def tables() -> dict:
    """{"low": (f_{-1/4}, f_{3/4}), "high": (P+iQ at -1/4, at 3/4)}: per order, its coefficients as doubles."""
    with mp.workdps(DPS):
        orders = [mp.mpf(nu) for nu in ORDERS]
        return {
            "low": [[float(c) for c in _chebyshev_coefficients(_low(nu), LOW_TERMS)] for nu in orders],
            "high": [[complex(c) for c in _chebyshev_coefficients(_high(nu), HIGH_TERMS)] for nu in orders],
        }


def main() -> None:
    for name, rows in tables().items():
        per_line = 3 if name == "low" else 2
        print(f"_BESSEL_{name.upper()} = np.array([")
        for nu, row in zip(ORDERS, rows):
            print(f"    [  # nu = {nu}")
            for k in range(0, len(row), per_line):
                print("        " + " ".join(f"{c!r}," for c in row[k : k + per_line]))
            print("    ],")
        print("])")


if __name__ == "__main__":
    main()
