"""Averages over R^p and over spheres, with one node-doubling loop.

The non-Laplace, oblique and symmetric-space routes each reduce a
short-time coefficient to a Gaussian average pi^{-p/2} int_{R^p} e^{-|x|^2}
f(x) dx.  Where f depends on x only through the direction x/|x|, that is the
average of f over the unit sphere S^{p-1}, which a sphere rule takes with far
fewer nodes; where f is Ad-invariant, a rule on a Cartan subalgebra does.
Three rules are built here: the product Gauss-Hermite rule on R^p,
cartan_rule and sphere_rule on S^{p-1}.  Each returns nodes and weights that
sum to 1, and `average` is the one place that decides convergence.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NumericError


def average(rule, schedule, integrand, tol, relative, name, count):
    """sum_j w_j f(x_j) over the rules rule(n), n in `schedule`, until it settles.

    rule(n) returns (N, p) nodes and N weights that sum to 1; `integrand` is
    called once on the whole node array and returns (N, ...) values.  The
    first estimate within `tol` of the previous one (within `tol` times its
    own largest entry when `relative`) is returned; otherwise NumericError
    names the rule (`name`), the tolerance, the last count (formatted by the
    template `count`) and the last change.
    """
    prev, delta = None, math.inf
    for n in schedule:
        nodes, wts = rule(n)
        est = np.moveaxis(integrand(nodes), 0, -1) @ wts
        if prev is not None:
            delta = float(np.max(np.abs(est - prev)))
            scale = float(np.max(np.abs(est))) if relative else 1.0
            if delta <= tol * scale:
                return est
        prev = est
    raise NumericError(
        f"{name} average did not settle to {tol:g}"
        f"{' relative' if relative else ''}: {count.format(n)}, last change "
        f"{delta:.3e}")


def gauss_hermite_rule(p, n):
    """n-point Gauss-Hermite rule on every axis of R^p, weights normalised by
    pi^{-p/2}.  n must be even: an even rule has no node at the origin, where
    the direction x/|x| is undefined."""
    x, w = np.polynomial.hermite.hermgauss(n)
    nodes = np.stack([g.ravel() for g in np.meshgrid(*([x] * p), indexing="ij")], axis=-1)
    wts = np.ones(nodes.shape[0])
    for g in np.meshgrid(*([w / math.sqrt(math.pi)] * p), indexing="ij"):
        wts = wts * g.ravel()
    return nodes, wts


def cartan_rule(ad, n):
    """The Gaussian average on R^p of an Ad-invariant f, on a Cartan subalgebra.

    ad is the (p, p, p) stack of skew ad(e_c) in an orthonormal basis.  The
    nodes are U h, U (p x r) an orthonormal basis of the kernel of ad(g) for
    one generic g and h on gauss_hermite_rule(r, n).  By Weyl's integration
    formula each weight is multiplied by prod_alpha alpha(H)^2, the product of
    the p - r largest singular values of ad(U h), and the weights are
    normalised to sum 1, which absorbs the group volume.  ad = 0 gives r = p.
    """
    p = ad.shape[0]
    g = np.random.default_rng(0).standard_normal(p)
    _, s, vt = np.linalg.svd(np.tensordot(g, ad, 1))
    r = int(np.sum(s <= 1e-10 * s[0]))
    h, wts = gauss_hermite_rule(r, n)
    nodes = h @ vt[p - r:]
    jac = np.linalg.svd(np.tensordot(nodes, ad, 1), compute_uv=False)[:, :p - r]
    wts = wts * np.prod(jac, axis=-1)
    return nodes, wts / wts.sum()


def _gegenbauer_rule(n, k):
    """n-point Gauss rule on [-1, 1] for the weight (1 - x^2)^{(k-1)/2}, k >= 1,
    by Golub-Welsch; weights sum to 1.  Legendre at k = 1, Chebyshev-II at k = 2."""
    lam = 0.5 * k
    j = np.arange(1.0, n)
    off = np.sqrt(j * (j + 2.0 * lam - 1.0) / (4.0 * (j + lam) * (j + lam - 1.0)))
    x, V = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    x = 0.5 * (x - x[::-1])                 # the rule is symmetric about 0
    w = V[0] ** 2
    w = 0.5 * (w + w[::-1])
    return x, w / w.sum()


def sphere_rule(dim, n):
    """Nodes on the unit sphere S^{dim-1} in R^dim and weights summing to 1.

    S^0 is the two points +-1 and S^1 the 2n-point trapezoid rule.  S^{k+1}
    is built from S^k: the n-point Gauss rule in the new first coordinate x
    for the weight (1 - x^2)^{(k-1)/2}, times the S^k rule scaled by
    sqrt(1 - x^2).  From S^1 up the rule integrates every polynomial of
    degree < 2n exactly.
    """
    if dim == 1:
        return np.array([[1.0], [-1.0]]), np.array([0.5, 0.5])
    phi = np.arange(2 * n) * (math.pi / n)
    nodes, wts = np.stack([np.cos(phi), np.sin(phi)], axis=-1), np.full(2 * n, 0.5 / n)
    for k in range(1, dim - 1):
        x, w = _gegenbauer_rule(n, k)
        polar = np.broadcast_to(x[:, None, None], (n, len(wts), 1))
        rest = np.sqrt((1.0 - x) * (1.0 + x))[:, None, None] * nodes[None]
        nodes, wts = np.concatenate([polar, rest], axis=-1).reshape(-1, k + 2), np.kron(w, wts)
    return nodes, wts


def sphere_average(dim, schedule, integrand, tol):
    """Average of f over the unit sphere S^{dim-1} by `average` on sphere_rule,
    to the absolute tolerance `tol`."""
    return average(lambda n: sphere_rule(dim, n), schedule, integrand, tol,
                   False, "sphere", "order {}")
