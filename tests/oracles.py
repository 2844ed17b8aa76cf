"""Independent reference computations used to check the library.

Everything here deliberately avoids the code paths under test: matrices
come from adaptive quadrature instead of closed forms, Jacobians from
finite differences of the nonlinear right-hand side, the cantilever
deflection from the classic tip-moment formula, and frequency responses
from an exact rational solve of the second-order equations.
"""

from fractions import Fraction

import numpy as np
from scipy.integrate import quad

import flexboom as fb


def quad_mass_matrix(params, basis):
    """Mass matrix by adaptive quadrature of rho * psi_i psi_j."""
    n = basis.mode_count
    exps = basis.exponents
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            val, _ = quad(lambda x: params.linear_density * x ** (exps[i] + exps[j]),
                          0.0, params.length, epsabs=0.0, epsrel=1e-13)
            out[i, j] = val
    return out


def quad_stiffness_matrix(params, basis):
    """Stiffness matrix by adaptive quadrature of EI * psi_i'' psi_j''."""
    n = basis.mode_count
    exps = basis.exponents
    ei = params.bending_stiffness

    def curv(p, x):
        return p * (p - 1) * x ** (p - 2)

    out = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            val, _ = quad(lambda x: ei * curv(exps[i], x) * curv(exps[j], x),
                          0.0, params.length, epsabs=0.0, epsrel=1e-13)
            out[i, j] = val
    return out


def cantilever_tip_deflection(params, tension):
    """Euler-Bernoulli tip deflection under a pure end moment h * T."""
    moment = params.cable_offset * tension
    return moment * params.length ** 2 / (2.0 * params.bending_stiffness)


def fd_jacobians(model, eq, rel=1e-2):
    """State and input Jacobians of dynamics_rhs by central differences.

    The right-hand side is affine in the state at fixed tension and affine
    in tension at fixed state, so central differences are exact up to
    rounding for any step; a percent-scale step keeps the rounding small.
    Steps are sized per component against the monomial magnitude at the
    tip, since the raw modal coordinates span many orders of magnitude.
    """
    n = model.mode_count
    exps = np.asarray(model.basis.exponents, dtype=float)
    comp_scale = np.concatenate([model.params.length ** -exps,
                                 model.params.length ** -exps])
    x_bar = np.concatenate([eq.modal_coords, np.zeros(n)])
    u_bar = eq.tension

    def rhs_vec(x, u):
        state = fb.State(q=x[:n], q_rate=x[n:])
        return fb.dynamics_rhs(model, state, u).as_vector()

    a_fd = np.zeros((2 * n, 2 * n))
    for j in range(2 * n):
        step = rel * max(abs(x_bar[j]), comp_scale[j])
        plus = x_bar.copy()
        minus = x_bar.copy()
        plus[j] += step
        minus[j] -= step
        a_fd[:, j] = (rhs_vec(plus, u_bar) - rhs_vec(minus, u_bar)) / (2.0 * step)

    step_u = rel * max(1.0, abs(u_bar))
    b_fd = (rhs_vec(x_bar, u_bar + step_u) - rhs_vec(x_bar, u_bar - step_u)) / (2.0 * step_u)
    return a_fd, b_fd


def entrywise_close(actual, expected, rel, abs_floor=0.0):
    """True when |actual - expected| <= rel * |expected| + abs_floor everywhere."""
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    return bool(np.all(np.abs(actual - expected)
                       <= rel * np.abs(expected) + abs_floor))


def exact_solve(matrix, rhs):
    """x with matrix x = rhs, by Gaussian elimination over Fractions."""
    n = len(rhs)
    rows = [list(row) + [b] for row, b in zip(matrix, rhs)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if rows[r][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        for r in range(col + 1, n):
            factor = rows[r][col] / rows[col][col]
            if factor:
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[col])]
    x = [Fraction(0)] * n
    for r in range(n - 1, -1, -1):
        x[r] = (rows[r][n] - sum(rows[r][c] * x[c] for c in range(r + 1, n))) / rows[r][r]
    return x


def exact_equilibrium_tip(model, tension):
    """psi(L) q with K_eff(T) q = f(0, T), solved exactly.

    The float entries of K_eff(T), f(0, T) and psi(L) are taken as exact
    rationals, so the result measures the error of a solver given that system.
    """
    n = model.mode_count
    stiffness = [[Fraction(float(v)) for v in row]
                 for row in model.effective_stiffness(tension)]
    force = [Fraction(float(v)) for v in fb.actuation_force(model, np.zeros(n), tension)]
    q = exact_solve(stiffness, force)
    return float(sum(Fraction(float(p)) * qi for p, qi in zip(model.tip_row, q)))


def exact_tip_rate_response(model, eq, omegas):
    """G(j w) = j w psi(L) . z with (K_eff(T) - w^2 M) z = f, solved exactly.

    The float entries of M, K_eff(T_eq), f = f(q_eq, 1) and psi(L), and each
    float w, are taken as exact rationals, so the only rounding is the final
    conversion of each response to a complex float.
    """
    def exact(values):
        return [Fraction(float(v)) for v in np.ravel(values)]

    n = model.mode_count
    mass = exact(model.mass_matrix)
    stiffness = exact(model.effective_stiffness(eq.tension))
    force = exact(fb.actuation_force(model, eq.modal_coords, 1.0))
    tip = exact(model.tip_row)
    out = []
    for w in omegas:
        w = Fraction(float(w))
        matrix = [[stiffness[i * n + j] - w * w * mass[i * n + j] for j in range(n)]
                  for i in range(n)]
        z = exact_solve(matrix, force)
        out.append(1j * float(w * sum(p * zi for p, zi in zip(tip, z))))
    return np.array(out)


def exact_state_space_response(ss, omegas):
    """G(j w) = C_q z + D + j w C_v z with (S + w^2 I) z = -b, solved exactly.

    The float entries of the rate block S, of b, C and D, and each float w,
    are taken as exact rationals: this is the response of the float system a
    solver is given, so a comparison with it measures the solver's error alone.
    """
    n = ss.mode_count
    rate = [[Fraction(float(v)) for v in row] for row in ss.rate_block]
    rhs = [-Fraction(float(v)) for v in ss.b[n:]]
    c_q = [Fraction(float(v)) for v in ss.c[:n]]
    c_v = [Fraction(float(v)) for v in ss.c[n:]]
    d = Fraction(float(ss.d))
    out = []
    for w in omegas:
        w = Fraction(float(w))
        matrix = [[v + (w * w if i == j else 0) for j, v in enumerate(row)]
                  for i, row in enumerate(rate)]
        z = exact_solve(matrix, rhs)
        out.append(complex(float(sum(c * zi for c, zi in zip(c_q, z)) + d),
                           float(w * sum(c * zi for c, zi in zip(c_v, z)))))
    return np.array(out)


def exact_spreader_matrix(params, basis):
    """Spreader matrix from the kink-force definition, summed over Fractions.

    The route is the root anchor, each spreader node x_i = i * node_spacing
    (the float product) short of the tip by more than a relative 1e-9, and
    the tip attachment.  Interior route point x_k carries the kink reaction
    psi(x_{k-1}) - 2 psi(x_k) + psi(x_{k+1}) (per unit tension, times
    node_spacing), weighted by psi(x_k), so entry (a, b) is
    sum_k psi_a(x_k) kink_b(x_k).  The float node positions and length are
    taken as exact rationals, so the returned Fractions carry no rounding.
    """
    length = Fraction(params.length)
    tip = length * (1 - Fraction(1e-9))
    nodes = [Fraction(i * params.node_spacing) for i in range(1, params.spreader_count + 1)]
    route = [Fraction(0)] + [x for x in nodes if x < tip] + [length]
    psi = [[x ** p for p in basis.exponents] for x in route]
    n = basis.mode_count
    out = [[Fraction(0)] * n for _ in range(n)]
    for prev, node, nxt in zip(psi, psi[1:], psi[2:]):
        for a in range(n):
            for b in range(n):
                out[a][b] += node[a] * (prev[b] - 2 * node[b] + nxt[b])
    return out
