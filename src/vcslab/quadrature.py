"""The two routes of the radial moment integrals.

Every in-scope moment integral reduces (after the triangular change of
variables) to pieces of the form

    I(q, S) = integral_0^inf u^q exp(-u/S) du = Gamma(q+1) S^(q+1),   q > -1, S > 0

(DLMF 5.2.1), which `log_moment_closed` gives through log-Gamma.  The
direct route, `log_moment_direct`, integrates the density itself
numerically in v = log u, from its pointwise values alone, so it shares
nothing with that reduction.  Values are carried as logs; disagreement
between the routes is the certificate that the density and its
reduction disagree.
"""

from __future__ import annotations

import math
from functools import cache

import numpy as np

from .special import log_gamma_grid

# The routes may differ by this much (relative) before a check aborts.
HARD_TOL = 1e-7

# The direct route's rule on each factor's axis: v = v* + sinh(t), in
# units of the peak's width, trapezoid in t at step 1/8 on [-4.5, 2.75].
# Negative t is the factor's slowly decaying side.
_T = np.arange(-36, 23) / 8.0
_NODES = np.sinh(_T)
_LOG_WEIGHTS = np.log(np.cosh(_T) / 8.0)


class QuadratureDisagreement(ArithmeticError):
    pass


def log_moment_closed(q):
    """log I(q, 1) = log Gamma(q+1), elementwise over q; the caller adds
    (q+1) log S.

    A divergent exponent (q <= -1) raises log_gamma_grid's ValueError at
    its first element in C order.
    """
    return log_gamma_grid(np.asarray(q + 1.0))


def _components(density) -> list[list[int]]:
    """The density's variables, grouped by the couplings of its exp terms."""
    group = {v: {v} for v in density.variables}
    for term in density.exp_terms:
        for j, _ in term.couplings:
            merged = group[term.var] | group[j]
            for v in merged:
                group[v] = merged
    seen, out = set(), []
    for v in density.variables:
        if v not in seen:
            seen |= group[v]
            out.append(sorted(group[v]))
    return out


def _read_only(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


@cache
def _tensor_rule(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """(nodes, log weights) of the dim-fold tensor product of the 1d rule."""
    nodes = np.meshgrid(*[_NODES] * dim, indexing="ij")
    log_weights = sum(np.meshgrid(*[_LOG_WEIGHTS] * dim, indexing="ij"))
    return _read_only(np.stack([n.ravel() for n in nodes])), _read_only(log_weights.ravel())


@cache
def _node_layout(comps: tuple[tuple[int, ...], ...]) -> tuple[np.ndarray, ...]:
    """(steps, log weights, block starts) of the direct route's nodes for
    components over the given columns.  Node 0 is the peak; after it comes
    one block per component, the tensor rule over its terms.  steps is
    (term, node) and zero outside each block's own terms."""
    n_cols = sum(map(len, comps))
    rules = [_tensor_rule(len(comp)) for comp in comps]
    starts = np.cumsum([1] + [w.size for _, w in rules])
    steps = np.zeros((n_cols, starts[-1]))
    for comp, (nodes, _), lo, hi in zip(comps, rules, starts, starts[1:]):
        steps[list(comp), lo:hi] = nodes
    log_weights = np.concatenate([w for _, w in rules])
    return _read_only(steps), _read_only(log_weights), _read_only(starts)


def log_moment_direct(density, exponents) -> np.ndarray:
    """log int chi(u) prod_t u_t^e_t du over u > 0, one value per point.

    exponents maps each variable to its exponents e_t, one per point (a
    missing variable has e_t = 0).  In v = log u the log-integrand is

        h(v) = log chi(e^v) + sum_t (e_t + 1) v_t,

    which is c.v - sum_k exp(A_k.v - l_k) plus a constant for the
    density's exp terms k, with c_t = e_t + power_t + 1.  It is concave,
    and its peak v* solves A^T E = c, with E_k the value of term k
    there; the integral diverges unless every E_k > 0, and is then +inf.
    Each coupled component of the density is integrated on its own, the
    other variables held at v*, on the tensor rule along the columns of
    M = A^-1 diag(E)^(-1/2): each column moves one term, in units of the
    peak's width.  Then log I = h(v*) + sum over components of
    log int exp(h - h(v*)).  The integrand's values come from
    `density.log_grid` only; A and c serve only to place the nodes.
    A `MeasureDensity` has one term per variable, and couples terms only
    to variables whose own terms are uncoupled: A = I + B with B B = 0,
    so A^-1 = I - B exactly and |det A| = 1.
    """
    variables = list(density.variables)
    col = {v: i for i, v in enumerate(variables)}
    a_inv = np.eye(len(variables))
    log_scale = np.zeros(len(variables))
    for t in density.exp_terms:
        for j, b in t.couplings:
            a_inv[col[t.var], col[j]] -= b
        log_scale[col[t.var]] = t.log_scale
    size = len(next(iter(exponents.values())))
    e = np.zeros((size, len(variables)))
    for i, var in enumerate(variables):
        if var in exponents:
            e[:, i] = exponents[var]
    big_e = (e + [density.power(v) + 1.0 for v in variables]) @ a_inv  # rows solve A^T E = c
    divergent = ~(big_e > 0.0).all(axis=-1)
    big_e[divergent] = 1.0
    peak = (np.log(big_e) + log_scale) @ a_inv.T
    m = a_inv / np.sqrt(big_e)[:, None, :]  # (point, variable, term)

    # nodes: the peak, then a block per component in which only the
    # component's variables move (M is zero between components); arrays
    # are (variable, point, node)
    comps = tuple(tuple(col[var] for var in comp) for comp in _components(density))
    steps, log_weights, starts = _node_layout(comps)
    v = peak.T[:, :, None] + (m @ steps).transpose(1, 0, 2)
    h = density.log_grid(dict(zip(variables, v)))
    h = h + ((e.T + 1.0)[:, :, None] * v).sum(axis=0)
    with np.errstate(over="ignore"):  # an overflowed weight makes the route's result inf
        weighted = np.exp(h[:, 1:] - h[:, :1] + log_weights)
    total = h[:, 0] + np.log(np.add.reduceat(weighted, starts[:-1] - 1, axis=1)).sum(axis=1)
    # the Jacobian of every component's map at once: |det M|
    total = total - 0.5 * np.log(big_e).sum(axis=-1)
    return np.where(divergent, np.inf, total)


def combine_routes(log_a: float, log_b: float, context: str = "") -> tuple[float, float]:
    """Return (agreed log value, relative disagreement); raise when hard-violated."""
    diff = log_b - log_a
    rel = abs(math.expm1(diff)) if diff < 700.0 else math.inf
    if not rel <= HARD_TOL:
        raise QuadratureDisagreement(
            f"quadrature routes disagree by {rel:.3e} (> {HARD_TOL:g}) {context}"
        )
    return log_a, rel


# bench/spans.py traces these names (log_moment_piece as moments'
# attribute); nothing in vcslab calls them.  The benchmark update of
# ROADMAP item 7 removes the aliases.
log_moment_gauss = log_moment_closed
log_moment_piece = log_moment_closed
log_moment_adaptive = log_moment_direct
