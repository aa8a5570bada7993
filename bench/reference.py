"""50-digit reference for the defosc benchmark checks.

Independent of the library's closed forms and of its factorial-quotient
recipe.  Only the coefficient power laws are shared: every family writes

    X = f(N) a- + g(N) a+,   P = i (k(N) a+ - h(N) a-),
    f, g, h, k = x**(e*n) / sqrt(2)

with x = q (families A-D) or Q = q/p (At-Dt).  The diagonal of
p X P - q P X = i in the Fock basis gives the operator functions

    H(n) = p f(n) k(n+1) + q g(n+1) h(n),
    G(n) = p g(n) h(n-1) + q f(n-1) k(n)      (p = 1 for one parameter),

and phi follows from H(n) phi(n+1) - G(n) phi(n) = 1 with phi(0) = 0.
Arithmetic runs in `decimal` at 50 significant digits; float inputs are
converted exactly.
"""

from __future__ import annotations

import decimal
from decimal import Decimal

DIGITS = 50
CONTEXT = decimal.Context(prec=DIGITS, Emax=10**8, Emin=-(10**8))

# exponents (e_f, e_g, e_h, e_k) of the coefficient power laws, per base letter
EXPONENTS = {
    "A": (1, 2, 2, 1),
    "B": (-2, -1, -1, -2),
    "C": (-2, 2, -1, 1),
    "D": (1, -1, 2, -2),
}

# a float64 run of the same recurrence is off by well under 1e-12 relative at
# n <= 100 (all terms positive, no cancellation); signs of energy gaps smaller
# than this share of the level scale are settled at 50 digits instead
SIGN_MARGIN = 1e-9


def _params(family: str, q: float, p: float | None) -> tuple[Decimal, Decimal, Decimal]:
    """(x, q, p) as Decimals; p = 1 for one-parameter families."""
    if family.endswith("t") != (p is not None):
        raise ValueError(f"family {family} does not take p = {p!r}")
    dq = Decimal(q)
    dp = Decimal(p) if p is not None else Decimal(1)
    return dq / dp, dq, dp


def phi_table(family: str, q: float, p: float | None, n_max: int) -> list[Decimal]:
    """phi(0..n_max) from phi(n+1) = (1 + G(n) phi(n)) / H(n), phi(0) = 0."""
    with decimal.localcontext(CONTEXT):
        x, dq, dp = _params(family, q, p)
        ef, eg, eh, ek = EXPONENTS[family[0]]
        # the four products above are x**(a*n + b); advance each by x**a per level
        terms = [x**ek, x**eg, x ** (-eh), x ** (-ef)]
        steps = [x ** (ef + ek), x ** (eg + eh), x ** (eg + eh), x ** (ef + ek)]
        phi = [Decimal(0)]
        for n in range(n_max):
            H = (dp * terms[0] + dq * terms[1]) / 2
            G = (dp * terms[2] + dq * terms[3]) / 2
            phi.append((1 + G * phi[n]) / H)
            terms = [t * s for t, s in zip(terms, steps)]
        return phi


def energies(phi: list[Decimal]) -> list[Decimal]:
    """E(n) = (phi(n+1) + phi(n)) / 2 for n = 0 .. len(phi) - 2."""
    with decimal.localcontext(CONTEXT):
        return [(phi[n + 1] + phi[n]) / 2 for n in range(len(phi) - 1)]


def energy_gap(family: str, q: float, n: int, m: int) -> Decimal:
    """E_q(n) - E_q(m) of a one-parameter family."""
    phi = phi_table(family, q, None, max(n, m) + 1)
    with decimal.localcontext(CONTEXT):
        return (phi[n + 1] + phi[n] - phi[m + 1] - phi[m]) / 2


def _energy_gap_float(family: str, qs, n: int, m: int):
    """The same recurrence in float64, vectorised over q; (gap, scale) arrays."""
    import numpy as np

    x = np.asarray(qs, dtype=float)
    ef, eg, eh, ek = EXPONENTS[family[0]]
    top = max(n, m) + 1
    phi = [np.zeros_like(x)]
    with np.errstate(all="ignore"):
        for j in range(top):
            H = 0.5 * (x ** (ef * j + ek * (j + 1)) + x * x ** (eg * (j + 1) + eh * j))
            G = 0.5 * (x ** (eg * j + eh * (j - 1)) + x * x ** (ef * (j - 1) + ek * j))
            phi.append((1.0 + G * phi[j]) / H)
        e_n = 0.5 * (phi[n + 1] + phi[n])
        e_m = 0.5 * (phi[m + 1] + phi[m])
        return e_n - e_m, np.abs(e_n) + np.abs(e_m)


def gap_signs(family: str, qs, n: int, m: int) -> list[int]:
    """Sign (-1, 0, 1) of E_q(n) - E_q(m) at each q.

    A float64 screen decides every point whose gap clears SIGN_MARGIN of the
    level scale; the rest are evaluated at 50 digits.
    """
    import numpy as np

    gap, scale = _energy_gap_float(family, qs, n, m)
    signs = np.sign(gap).astype(int).tolist()
    unsure = ~(np.isfinite(gap) & np.isfinite(scale) & (np.abs(gap) > SIGN_MARGIN * scale))
    for i in np.flatnonzero(unsure).tolist():
        exact = energy_gap(family, qs[i], n, m)
        signs[i] = (exact > 0) - (exact < 0)
    return signs


def _ratio_exponents(family: str, target: str) -> tuple[int, int]:
    """(a, b) with T[n, n+1] ~ x**(a*n) and T[n+1, n] ~ x**(b*(n+1)), up to sqrt(phi)."""
    ef, eg, eh, ek = EXPONENTS[family[0]]
    return (ef, eg) if target == "X" else (eh, ek)


def metric_eta(family: str, q: float, p: float | None, dim: int, target: str) -> list[Decimal]:
    """eta(0..dim-1) with eta(0) = 1 and eta(n+1)/eta(n) = f(n)/g(n+1) (X) or h(n)/k(n+1) (P)."""
    a, b = _ratio_exponents(family, target)
    with decimal.localcontext(CONTEXT):
        x = _params(family, q, p)[0]
        eta = [Decimal(1)]
        for n in range(dim - 1):
            eta.append(eta[n] * x ** (a * n - b * (n + 1)))
        return eta


def hermiticity_defect(family: str, q: float, p: float | None, dim: int,
                       target: str) -> tuple[Decimal, Decimal]:
    """Max |T - T^dagger| on the trusted (dim-1) block, and the size of the entries forming it.

    The off-diagonal pair at (n, n+1) differs by |c(n) - d(n+1)| sqrt(phi(n+1))
    with (c, d) = (f, g) for X and (h, k) for P; the second value is the
    largest (|c(n)| + |d(n+1)|) sqrt(phi(n+1)), the scale of the rounding error.
    """
    a, b = _ratio_exponents(family, target)
    phi = phi_table(family, q, p, dim)
    with decimal.localcontext(CONTEXT):
        x = _params(family, q, p)[0]
        root_half = Decimal("0.5").sqrt()
        defect = scale = Decimal(0)
        for n in range(dim - 2):
            c, d = x ** (a * n) * root_half, x ** (b * (n + 1)) * root_half
            amp = phi[n + 1].sqrt()
            defect = max(defect, abs(c - d) * amp)
            scale = max(scale, (abs(c) + abs(d)) * amp)
        return defect, scale
