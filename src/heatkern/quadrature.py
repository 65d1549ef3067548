"""One doubling driver, `converge`, for every certified sum and rule average.

spectra._certified_trace runs the spectral, lattice and Bessel mode sums
through it, and `average` the rule averages.  The non-Laplace, oblique and
symmetric-space routes each reduce a short-time coefficient to a Gaussian
average pi^{-p/2} int_{R^p} e^{-|x|^2} f(x) dx.  Where f depends on x only
through the direction x/|x|, that is the average of f over the unit sphere
S^{p-1}, which a sphere rule takes with far fewer nodes; where f is
Ad-invariant, a rule on a Cartan subalgebra does.  The three rules here have
weights summing to 1: Gauss-Hermite on R^p, cartan_rule and sphere_rule.

The Gauss-Hermite and sphere rules and the direction samples depend only on a
few ints, so each is built once per argument tuple, on its first call, and the
one result is shared read-only by every later call.  No key holds an
integrand's data: it is a dimension, a node count on the doubling ladder, or a
caller's fixed (count, seed), so a call on new data in a dimension already
seen finds its rules built.  cartan_rule, keyed by an array, is rebuilt on
each call from the shared Gauss-Hermite rule.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import ResourceError, ValidationError


def converge(n, cap, estimate, error, floor, refusal, size=lambda n: n):
    """(est, n, err) at the first n, from a first n >= 1 and doubling, where
    err = error(n, est, prev) <= floor(est) at every entry, prev being the
    estimate at the n before (None at the first).  Before n is rounded up and
    estimated, size(n) over cap is a ResourceError with the text
    refusal(size=size(n), last=the last n estimated, err=its error)."""
    prev, last, err = None, None, math.inf
    while True:
        if not size(n) <= cap:
            raise ResourceError(refusal(size=size(n), last=last, err=err))
        last = n = math.ceil(n)
        est = estimate(n)
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            err = error(n, est, prev)
            if np.less_equal(err, floor(est)).all():
                return est, n, err
        prev, n = est, 2 * n


def average(rule, first, last, integrand, tol, relative, name, count):
    """sum_j w_j f(x_j) on the rules rule(n), n = first, 2 first, ..., last, at
    the first n within `tol` of the n before (of `tol` times its largest entry
    when `relative`).  rule(n) returns (N, p) nodes and N weights summing to 1;
    `integrand` maps the node array to (N, ...) values.  Past `last` a
    ResourceError names the rule, the tolerance, the last count (the template
    `count`, with a field {last}) and the last change."""
    def estimate(n):
        nodes, wts = rule(n)
        return np.moveaxis(integrand(nodes), 0, -1) @ wts

    return converge(
        first, last, estimate,
        lambda n, est, prev: math.nan if prev is None else float(np.max(np.abs(est - prev))),
        lambda est: tol * (float(np.max(np.abs(est))) if relative else 1.0),
        (f"{name} average did not settle to {tol:g}{' relative' if relative else ''}: "
         f"{count}, last change {{err:.3e}}").format)[0]


def _shared(*arrays):
    """The freshly built arrays of one cached result, made read-only in place:
    every later call shares them, so none may change."""
    for a in arrays:
        a.flags.writeable = False
    return arrays


def unit_directions(p, count, seed):
    """count unit vectors in R^p: the axes +-e_i, then standard normal draws of
    norm above 1e-3 from the generator seeded with `seed`, normalised.  The
    read-only result is built once per (p, count, seed).  Each is an int or numpy
    integer, checked here: quadrature imports no spectra."""
    for what, n, least in (("dimension p", p, 1), ("count", count, 0), ("seed", seed, 0)):
        if not (isinstance(n, (int, np.integer)) and n >= least):
            raise ValidationError(f"unit directions need a {what} >= {least}, not {n!r}")
    return _unit_directions(int(p), int(count), int(seed))


@lru_cache(maxsize=None)
def _unit_directions(p, count, seed):
    dirs = [s * e for e in np.eye(p) for s in (1.0, -1.0)]
    rng = np.random.default_rng(seed)
    while len(dirs) < count:
        v = rng.standard_normal(p)
        n = np.linalg.norm(v)
        if n > 1e-3:
            dirs.append(v / n)
    return _shared(np.array(dirs))[0]


@lru_cache(maxsize=None)
def gauss_hermite_rule(p, n):
    """n-point Gauss-Hermite rule on every axis of R^p, weights normalised by
    pi^{-p/2}, built once per (p, n) and read-only.  n must be even: an even
    rule has no node at the origin, where the direction x/|x| is undefined."""
    x, w = np.polynomial.hermite.hermgauss(n)
    grid = lambda v: [g.ravel() for g in np.meshgrid(*([v] * p), indexing="ij")]
    return _shared(np.stack(grid(x), axis=-1), np.prod(grid(w / math.sqrt(math.pi)), axis=0))


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


@lru_cache(maxsize=None)
def sphere_rule(dim, n):
    """Nodes on the unit sphere S^{dim-1} in R^dim and weights summing to 1,
    built once per (dim, n) and read-only.

    S^0 is the two points +-1 and S^1 the 2n-point trapezoid rule.  S^{k+1}
    is built from S^k: the n-point Gauss rule in the new first coordinate x
    for the weight (1 - x^2)^{(k-1)/2}, times the S^k rule scaled by
    sqrt(1 - x^2).  From S^1 up the rule integrates every polynomial of
    degree < 2n exactly.
    """
    if dim == 1:
        return _shared(np.array([[1.0], [-1.0]]), np.array([0.5, 0.5]))
    phi = np.arange(2 * n) * (math.pi / n)
    nodes, wts = np.stack([np.cos(phi), np.sin(phi)], axis=-1), np.full(2 * n, 0.5 / n)
    for k in range(1, dim - 1):
        x, w = _gegenbauer_rule(n, k)
        polar = np.broadcast_to(x[:, None, None], (n, len(wts), 1))
        rest = np.sqrt((1.0 - x) * (1.0 + x))[:, None, None] * nodes[None]
        nodes, wts = np.concatenate([polar, rest], axis=-1).reshape(-1, k + 2), np.kron(w, wts)
    return _shared(nodes, wts)


def sphere_average(dim, first, last, integrand, tol):
    """`average` of f on sphere_rule(dim, n) over S^{dim-1}, to the absolute `tol`."""
    return average(lambda n: sphere_rule(dim, n), first, last, integrand, tol,
                   False, "sphere", "order {last}")
