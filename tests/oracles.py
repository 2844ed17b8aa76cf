"""Independent reference computations used to check the library.

Everything here deliberately avoids the code paths under test: matrices
come from adaptive quadrature instead of closed forms, Jacobians from
finite differences of the nonlinear right-hand side, the cantilever
deflection from the classic tip-moment formula, frequency responses
from an exact rational solve of the second-order equations, and the
critical tension from a Sturm sequence on the exact determinant polynomial
instead of an eigendecomposition.
"""

import math
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


def exact_determinant(matrix):
    """det(matrix) by Gaussian elimination over Fractions."""
    rows = [list(row) for row in matrix]
    n = len(rows)
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        det *= rows[col][col]
        for r in range(col + 1, n):
            factor = rows[r][col] / rows[col][col]
            if factor:
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[col])]
    return det


def _primitive(poly):
    """``poly`` (ascending powers, rational) times a positive rational: coprime ints."""
    scale = math.lcm(*(Fraction(c).denominator for c in poly))
    ints = [int(c * scale) for c in poly]
    common = math.gcd(*ints)
    return [c // common for c in ints]


def _sign_changes(sturm, x):
    """Sign changes of the integer polynomials ``sturm`` at the rational x.

    Each p(a / d) is signed as the integer sum_i c_i a^i d^(m-i) = d^m p(a / d).
    """
    a, d = x.numerator, x.denominator
    signs = []
    for poly in sturm:
        value, power = poly[-1], 1
        for c in reversed(poly[:-1]):
            power *= d
            value = value * a + c * power
        if value:
            signs.append(value > 0)
    return sum(s != t for s, t in zip(signs, signs[1:]))


def exact_critical_tension(params, basis, rel_width=Fraction(1, 10 ** 20)):
    """Least T > 0 with det(K - (T / dx) S) = 0, as a Fraction, or inf if there is none.

    K is the stiffness matrix from its defining integral,
    K_jk = EI pj(pj-1) pk(pk-1) L^(pj+pk-3) / (pj+pk-3), and S the spreader
    matrix from ``exact_spreader_matrix``, with the float parameters taken as
    exact rationals (EI is their exact product).  The determinant is a
    polynomial of degree at most n in T, recovered by Newton interpolation
    from its exact values at T = 0, 1, ..., n.  A Sturm sequence counts its
    distinct roots in (0, x], and bisection from Cauchy's root bound narrows
    the least positive root to an interval of relative width ``rel_width``,
    whose midpoint is returned.  Integer exponents only.
    """
    exps = basis.exponents
    if not all(isinstance(p, int) for p in exps):
        raise ValueError("exact_critical_tension needs integer exponents")
    n = basis.mode_count
    length = Fraction(params.length)
    ei = Fraction(params.elastic_modulus) * Fraction(params.second_moment)
    stiffness = [[ei * p * (p - 1) * q * (q - 1) * length ** (p + q - 3) / (p + q - 3)
                  for q in exps] for p in exps]
    spreader = exact_spreader_matrix(params, basis)
    dx = Fraction(params.node_spacing)
    diffs = [exact_determinant([[k - t * s / dx for k, s in zip(k_row, s_row)]
                                for k_row, s_row in zip(stiffness, spreader)])
             for t in range(n + 1)]
    for level in range(1, n + 1):  # Newton's divided differences on the nodes 0..n
        for k in range(n, level - 1, -1):
            diffs[k] = (diffs[k] - diffs[k - 1]) / level
    coeffs = [diffs[n]]  # ascending powers, expanded by Horner's rule on the nodes
    for k in range(n - 1, -1, -1):
        shifted = [Fraction(0)] + coeffs  # coeffs * T
        coeffs = [s - k * c for s, c in zip(shifted, coeffs + [Fraction(0)])]
        coeffs[0] += diffs[k]
    while coeffs[-1] == 0:
        coeffs.pop()
    if len(coeffs) < 2:
        return math.inf
    sturm = [_primitive(coeffs), _primitive([k * c for k, c in enumerate(coeffs)][1:])]
    while len(sturm[-1]) > 1:
        rem = [Fraction(c) for c in sturm[-2]]
        while len(rem) >= len(sturm[-1]):  # the remainder of sturm[-2] / sturm[-1]
            factor = rem[-1] / sturm[-1][-1]
            for k, c in enumerate(sturm[-1]):
                rem[len(rem) - len(sturm[-1]) + k] -= factor * c
            rem.pop()
        while rem and rem[-1] == 0:
            rem.pop()
        if not rem:
            break
        sturm.append([-c for c in _primitive(rem)])
    bound = 1 + max(abs(c / coeffs[-1]) for c in coeffs[:-1])  # Cauchy's
    low, high = Fraction(0), Fraction(1 << math.ceil(bound).bit_length())
    at_zero = _sign_changes(sturm, low)
    if _sign_changes(sturm, high) == at_zero:
        return math.inf
    while low == 0 or high - low > rel_width * low:
        mid = (low + high) / 2
        if _sign_changes(sturm, mid) < at_zero:
            high = mid
        else:
            low = mid
    return (low + high) / 2
