#!/usr/bin/env python3
"""Polynomial tables of J_{-1/4} and J_{3/4}, the Bessel orders of the NEW eigenstates.

qarrival.numerics sums two tables by Horner's rule, each with one row of
monomial coefficients a_k, sum_k a_k x^k, per order nu = -1/4, 3/4:

- low table, z < 10: f_nu(u) = z^(-nu) J_nu(z), an entire function of
  u = (z/10)^2 (DLMF 10.2.2), fitted on z in [0, 12], x = u/0.72 - 1 = z^2/72 - 1;
- high table, z >= 10: the Hankel modulation P + iQ = sqrt(pi z/2) e^(-i omega)
  H1_nu(z), omega = z - nu pi/2 - pi/4 (DLMF 10.17), smooth in w = 10/z and
  fitted on w in [0, 1.25] (z >= 8), x = 16/z - 1.

Both fits overlap on z in [8, 12], where the `bessel_branch_window` check
compares them.  Each function is interpolated at NODES Chebyshev points of the
first kind with mpmath at DPS digits, and the DCT is taken in mpmath too.  The
leading LOW_TERMS / HIGH_TERMS Chebyshev coefficients (the next one is below
2e-16 in both tables) are expanded into monomials in mpmath, and only those
are rounded to double.

Horner's rounding error is bounded by about 2k eps sum_k |a_k| |x|^k (Higham,
Accuracy and Stability of Numerical Algorithms, 2002, sec. 5.1), so a table is
as well conditioned as sum_k |a_k| is close to max |f|: 1.0004 against 1.0 for
the high table, 22.4 against 0.97 for the low one, whose terms cancel most at
z -> 0 (x -> -1).  Summed in double precision, the low table errs by at most
3.2e-15 against mpmath and the high one by 1.8e-16.  In numerics a sample
costs about 27 ns below z = 10 and 65-80 ns at and above it, cos and sin
included (4096-sample arrays, 2 cores, numpy 2.4).

Run from the repository root to print the literals of numerics.py, followed
by each table's largest error against mpmath as a comment:

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


def _monomials(chebyshev: list) -> list:
    """The coefficients a_k of sum_k a_k x^k = sum_k c_k T_k(x), with T_1 = x and
    T_(k+1) = 2x T_k - T_(k-1) expanded as coefficient lists."""
    a = [mp.mpf(0)] * len(chebyshev)
    t_prev, t = [], [mp.mpf(1)]
    for k, c in enumerate(chebyshev):
        for j, b in enumerate(t):
            a[j] += c * b
        t_next = [mp.mpf(0)] + [(1 if k == 0 else 2) * b for b in t]
        for j, b in enumerate(t_prev):
            t_next[j] -= b
        t_prev, t = t, t_next
    return a


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
    """{"low": (f_{-1/4}, f_{3/4}), "high": (P+iQ at -1/4, at 3/4)}: per order, its monomial coefficients as doubles."""
    with mp.workdps(DPS):
        orders = [mp.mpf(nu) for nu in ORDERS]
        return {
            "low": [[float(a) for a in _monomials(_chebyshev_coefficients(_low(nu), LOW_TERMS))] for nu in orders],
            "high": [[complex(a) for a in _monomials(_chebyshev_coefficients(_high(nu), HIGH_TERMS))] for nu in orders],
        }


def _horner(coefs: list, x: float) -> float:
    """sum_k a_k x^k in double precision by Horner's rule, as numerics sums each real series."""
    s = coefs[-1]
    for a in reversed(coefs[:-1]):
        s = s * x + a
    return s


def max_errors(tables: dict, samples: int = 200) -> dict:
    """{table: [largest |double Horner sum - f| per order]}, against mpmath at
    DPS digits at the same z: the low table on z in (0, 10), the high one on
    z in [10, 1e5].  Each sum reads its variable as numerics forms it, so the
    rounding of x counts too."""
    zs = {"low": [10.0 * (k + 0.5) / samples for k in range(samples)],
          "high": [10.0 * 1e4 ** (k / (samples - 1)) for k in range(samples)]}
    variable = {"low": lambda z: z * z / 72 - 1, "high": lambda z: 16 / z - 1}
    errors: dict = {name: [] for name in zs}
    with mp.workdps(DPS):
        for row, nu in enumerate(ORDERS):
            for name, exact in (("low", _low(mp.mpf(nu))), ("high", _high(mp.mpf(nu)))):
                coefs = tables[name][row]
                parts = [[complex(a).real for a in coefs], [complex(a).imag for a in coefs]]
                errors[name].append(float(max(
                    abs(complex(*(_horner(part, variable[name](z)) for part in parts)) - exact(variable[name](mp.mpf(z))))
                    for z in zs[name]
                )))
    return errors


def main() -> None:
    fresh = tables()
    for name, rows in fresh.items():
        per_line = 3 if name == "low" else 2
        print(f"_BESSEL_{name.upper()} = np.array([")
        for nu, row in zip(ORDERS, rows):
            print(f"    [  # nu = {nu}")
            for k in range(0, len(row), per_line):
                print("        " + " ".join(f"{c!r}," for c in row[k : k + per_line]))
            print("    ],")
        print("])")
    for name, per_order in max_errors(fresh).items():
        where = "z in (0, 10)" if name == "low" else "z in [10, 1e5]"
        print(f"# {name} table, max |Horner sum - mpmath| on {where}: "
              + ", ".join(f"nu = {nu}: {e:.2g}" for nu, e in zip(ORDERS, per_order)))


if __name__ == "__main__":
    main()
