"""Adaptive Gauss-Legendre quadrature: the independent oracle for closed forms.

The package evaluates the limit function from closed forms; this module
integrates the defining integrals directly so that tests and the acceptance
suite can check those forms.  The integrands are CGFs, smooth on the interior
of their domain and at worst logarithmically singular at an open domain
boundary.  Gauss-Legendre nodes are interior points, so a singular endpoint
is never evaluated, and adaptive bisection resolves an integrable endpoint
singularity within its subdivision budget.  When the budget runs out the
integral raises :class:`QuadratureError`.
"""

from __future__ import annotations

import numpy as np

_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(12)


class QuadratureError(RuntimeError):
    """Raised when the subdivision budget is exhausted before convergence."""


def gauss_legendre_panel(f, a: float, b: float) -> float:
    """Fixed 12-point Gauss-Legendre estimate on [a, b]."""
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    return half * sum(w * f(mid + half * t) for t, w in zip(_NODES, _WEIGHTS))


def adaptive_gauss_legendre(
    f,
    a: float,
    b: float,
    tol: float = 1e-10,
    max_subdivisions: int = 2**14,
) -> float:
    """Integral of f over [a, b] to absolute tolerance ``tol``.

    Interval bisection is driven by the difference between a single panel and
    its two halves; more than ``max_subdivisions`` panels raise
    :class:`QuadratureError`.
    """
    if a == b:
        return 0.0
    sign = 1.0
    if b < a:
        a, b = b, a
        sign = -1.0
    # stack entries: (a, b, one-panel estimate, local tolerance)
    stack = [(a, b, gauss_legendre_panel(f, a, b), tol)]
    total = 0.0
    used = 1
    while stack:
        lo, hi, whole, local_tol = stack.pop()
        mid = 0.5 * (lo + hi)
        left = gauss_legendre_panel(f, lo, mid)
        right = gauss_legendre_panel(f, mid, hi)
        diff = abs(left + right - whole)
        if diff <= local_tol:
            total += left + right
            continue
        if hi - lo < 1e-15 * (b - a + 1.0):
            # width at the roundoff floor: accept only roundoff-level
            # discrepancy, otherwise the integrand diverges here (e.g. 1/t,
            # whose panel estimates are scale invariant and never settle)
            if diff <= 1e-10 * (abs(left) + abs(right) + abs(whole) + 1.0):
                total += left + right
                continue
            raise QuadratureError(
                f"no convergence on [{lo!r}, {hi!r}]: refinement changes the "
                f"estimate by {diff:.3e}"
            )
        if used + 2 > max_subdivisions:
            raise QuadratureError(
                f"subdivision budget {max_subdivisions} exhausted on [{lo!r}, {hi!r}]"
            )
        used += 2
        stack.append((lo, mid, left, 0.5 * local_tol))
        stack.append((mid, hi, right, 0.5 * local_tol))
    return sign * total
