"""Gaussian averages by product Gauss-Hermite quadrature with node doubling.

The non-Laplace, oblique and symmetric-space routes each reduce a
short-time coefficient to pi^{-p/2} int_{R^p} e^{-|x|^2} f(x) dx; this is the
one place that builds the product rules and decides convergence.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NumericError


def gauss_hermite_average(p, schedule, integrand, tol, relative=False):
    """pi^{-p/2} int_{R^p} e^{-|x|^2} f(x) dx over a schedule of node counts.

    For each n in `schedule` the n-point rule is taken on every axis, and
    `integrand` is called once on the whole (n^p, p) node array; it returns
    (n^p, ...) values.  The first estimate within `tol` of the previous one
    (within `tol` times its own largest entry when `relative`) is returned;
    otherwise NumericError names the tolerance, the last node count and the
    last change.

    Every count in `schedule` must be even: an even rule has no node at the
    origin, where the direction x/|x| that the integrands depend on is
    undefined.
    """
    prev, delta = None, math.inf
    for n in schedule:
        x, w = np.polynomial.hermite.hermgauss(n)
        nodes = np.stack([g.ravel() for g in np.meshgrid(*([x] * p), indexing="ij")],
                         axis=-1)
        wts = np.ones(nodes.shape[0])
        for g in np.meshgrid(*([w] * p), indexing="ij"):
            wts = wts * g.ravel()
        vals = integrand(nodes)
        est = math.pi ** (-p / 2.0) * (np.moveaxis(vals, 0, -1) @ wts)
        if prev is not None:
            delta = float(np.max(np.abs(est - prev)))
            scale = float(np.max(np.abs(est))) if relative else 1.0
            if delta <= tol * scale:
                return est
        prev = est
    raise NumericError(
        f"Gauss-Hermite average did not settle to {tol:g}"
        f"{' relative' if relative else ''}: {n} nodes per axis, last change "
        f"{delta:.3e}")
