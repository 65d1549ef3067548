"""Exact-spectrum oracles and asymptotic-series fitting.

These are the ground-truth side of every comparison in the package: interval
and sphere eigenvalue sums, the Landau-level density, Fourier-matrix traces
for circle/torus potentials, and a weighted least-squares fitter that turns
oracle sums into expansion coefficients with honest error bars.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericError, ResourceError, ValidationError

_INTERVAL_CAP = 1_000_000        # eigenvalues in one interval partial sum
_SPHERE_CAP = 2_000_000          # eigenvalue levels in one sphere partial sum

# Input ranges of the interval and Fourier routes.  Inside them every squared
# wavenumber (2 pi n / L)^2 and squared amplitude is a finite float, and every
# mode number is exact as a float and as an int64 offset.
MIN_LENGTH = 1e-100
MAX_MODE = 2 ** 53
MAX_AMPLITUDE = 1e100


@dataclass(frozen=True)
class SpectralModel:
    """Eigenvalue enumerator plus an analytic tail bound.

    eigenvalues(count) returns the first `count` pairs (lambda, multiplicity)
    in nondecreasing lambda order; tail_bound(t, count) bounds the trace mass
    of everything beyond those, monotonically decreasing in count.
    """

    descriptor: str
    eigenvalues: callable
    tail_bound: callable

    def partial_trace(self, t, count):
        return sum(mult * math.exp(-t * lam) for lam, mult in self.eigenvalues(count))


# ---------------------------------------------------------------------------
# interval spectra
# ---------------------------------------------------------------------------

def _robin_eigenvalues(L, S, count):
    """Robin condition (d/dn + S)u = 0 with inward normal at both endpoints.

    The secular function factorizes into even/odd families about the
    midpoint: k tan(kL/2) = -S and k cot(kL/2) = S.  Each branch of tan/cot
    carries exactly one root, which brentq brackets exactly; for S > 0 the
    lowered spectrum admits one or two negative eigenvalues, found from the
    hyperbolic counterparts kappa tanh(kappa L/2) = S, kappa coth = S.
    """
    from scipy.optimize import brentq

    lams = []

    def even_f(k):
        u = k * L / 2.0
        return k * math.sin(u) + S * math.cos(u)

    def odd_f(k):
        u = k * L / 2.0
        return k * math.cos(u) - S * math.sin(u)

    def secular(k):
        return (k * k - S * S) * math.sin(k * L) + 2.0 * S * k * math.cos(k * L)

    if S > 0:
        g = lambda x: x * math.tanh(x * L / 2.0) - S
        hi = S + 4.0 / L
        lams.append(-brentq(g, 1e-14, hi, xtol=1e-15, rtol=8.9e-16) ** 2)
        if S * L > 2.0:
            h = lambda x: x / math.tanh(x * L / 2.0) - S
            lams.append(-brentq(h, 1e-14, hi, xtol=1e-15, rtol=8.9e-16) ** 2)

    eps = 1e-12
    j = 0
    while len(lams) < count + 4:
        # even branch: u in (j pi - pi/2, j pi + pi/2), k > 0
        if j >= 1 or S < 0:
            ulo = max(j * math.pi - math.pi / 2.0, 0.0) + eps
            uhi = j * math.pi + math.pi / 2.0 - eps
            f = lambda u: (2.0 * u / L) * math.tan(u) + S
            if f(ulo) < 0 < f(uhi):
                u = brentq(f, ulo, uhi, xtol=1e-15, rtol=8.9e-16)
                lams.append((2.0 * u / L) ** 2)
        # odd branch: u in (j pi, (j+1) pi); k cot(kL/2) decreasing there
        ulo = j * math.pi + eps
        uhi = (j + 1) * math.pi - eps
        g = lambda u: (2.0 * u / L) / math.tan(u) - S
        if g(ulo) > 0 > g(uhi):
            u = brentq(g, ulo, uhi, xtol=1e-15, rtol=8.9e-16)
            lams.append((2.0 * u / L) ** 2)
        j += 1

    lams.sort()
    out = []
    for lam in lams[:count]:
        if lam > 0:
            k = math.sqrt(lam)
            scale = max(1.0, k * k + S * S)
            if abs(secular(k)) > 1e-12 * scale * max(1.0, k):
                raise NumericError(f"robin root residual too large at k={k}")
        out.append((lam, 1))
    return out


def interval_model(L, bc, S=None):
    if L <= 0:
        raise ValidationError("interval length must be positive")
    if not L >= MIN_LENGTH:
        raise ValidationError(f"interval length {L!r} is below {MIN_LENGTH:g}")
    bc = bc.upper() if bc.lower() != "robin" else "robin"
    c = (math.pi / L) ** 2

    if bc == "DD":
        ev = lambda n: [((j * math.pi / L) ** 2, 1) for j in range(1, n + 1)]
    elif bc == "NN":
        ev = lambda n: [((j * math.pi / L) ** 2, 1) for j in range(0, n)]
    elif bc == "DN":
        ev = lambda n: [(((j + 0.5) * math.pi / L) ** 2, 1) for j in range(0, n)]
    elif bc == "robin":
        if S is None:
            raise ValidationError("robin boundary condition needs a constant S")
        S = float(S)
        if S == 0.0:
            return interval_model(L, "NN")
        ev = lambda n: _robin_eigenvalues(L, S, n)
    else:
        raise ValidationError(f"unknown interval boundary condition {bc!r}")

    def tail(t, n):
        # lambda_j >= ((j-2) pi / L)^2 for every family above
        J = max(n - 2, 0)
        return math.exp(-t * c * J * J) + math.sqrt(math.pi / (4 * t * c)) \
            * math.erfc(math.sqrt(t * c) * J)

    return SpectralModel(descriptor=f"interval L={L} bc={bc}", eigenvalues=ev,
                         tail_bound=tail)


def interval_trace(L, bc, t, S=None):
    """Sum of e^{-t lambda} over the interval spectrum with the given bc."""
    if t <= 0:
        raise ValidationError("t must be positive")
    model = interval_model(L, bc, S)
    count = L / math.pi * math.sqrt(60.0 / t)
    if not count <= _INTERVAL_CAP:
        raise NumericError(
            f"interval trace needs about {count:.3g} eigenvalues at t={t!r}, "
            f"over the cap of {_INTERVAL_CAP}")
    n = max(8, int(count) + 4)
    total = model.partial_trace(t, n)
    while model.tail_bound(t, n) > 1e-15 * max(total, 1e-300):
        n *= 2
        total = model.partial_trace(t, n)
        if n > _INTERVAL_CAP:
            raise NumericError("interval trace did not converge")
    return total


# ---------------------------------------------------------------------------
# sphere spectra
# ---------------------------------------------------------------------------

def sphere_model(m, a):
    if m not in (2, 3):
        raise ValidationError("sphere spectra implemented for m in {2, 3}")
    if a <= 0:
        raise ValidationError("radius must be positive")
    ia2 = 1.0 / (a * a)
    if m == 2:
        ev = lambda n: [(l * (l + 1) * ia2, 2 * l + 1) for l in range(n)]

        def tail(t, n):
            c = t * ia2
            return (2 * n + 1) * math.exp(-c * n * (n + 1)) \
                + math.exp(-c * n * (n + 1)) / c
    else:
        ev = lambda n: [(l * (l + 2) * ia2, (l + 1) ** 2) for l in range(n)]

        def tail(t, n):
            c = t * ia2
            u = n + 1.0
            gauss = u * math.exp(-c * u * u) / (2 * c) \
                + math.sqrt(math.pi) / (4 * c ** 1.5) * math.erfc(math.sqrt(c) * u)
            return math.exp(c) * (u * u * math.exp(-c * u * u) + gauss)
    return SpectralModel(descriptor=f"sphere m={m} a={a}", eigenvalues=ev,
                         tail_bound=tail)


def sphere_trace(m, a, t):
    """Exact heat trace of the round sphere Laplacian, tail below 1e-14."""
    if t <= 0:
        raise ValidationError("t must be positive")
    model = sphere_model(m, a)
    count = a * math.sqrt(40.0 / t)
    if not count <= _SPHERE_CAP:
        raise NumericError(
            f"sphere trace needs about {count:.3g} eigenvalue levels at t={t!r}, "
            f"over the cap of {_SPHERE_CAP}")
    n = max(4, int(count) + 2)
    total = model.partial_trace(t, n)
    while model.tail_bound(t, n) > 1e-14 * max(total, 1.0):
        n *= 2
        total = model.partial_trace(t, n)
        if n > _SPHERE_CAP:
            raise NumericError("sphere trace did not converge")
    return total


# ---------------------------------------------------------------------------
# Landau levels
# ---------------------------------------------------------------------------

def landau_trace_density(B, t):
    """Per-area trace of the m=2 constant-field problem.

    (B/2 pi) sum_n e^{-tB(2n+1)} geometrically summed: (B/4 pi)/sinh(tB),
    written with x = e^{-tB} as B x / (2 pi (1 - x^2)) so that large tB
    underflows toward 0 instead of overflowing sinh.
    """
    if B <= 0 or t <= 0:
        raise ValidationError("landau density needs B > 0 and t > 0")
    return B * math.exp(-t * B) / (2.0 * math.pi * -math.expm1(-2.0 * t * B))


# ---------------------------------------------------------------------------
# circle / torus with potential
# ---------------------------------------------------------------------------

_MATRIX_BUDGET = 4097
_TAIL_SHELLS = 100_000
_EXP_CHUNK = 1_000_000


def cosine_modes(n, q):
    """Fourier modes of q cos(n x) on the circle."""
    if n == 0:
        return {(0,): complex(q)}
    return {(n,): q / 2.0 + 0.0j, (-n,): q / 2.0 + 0.0j}


def _normalize_modes(modes, m):
    out = {}
    for key, amp in modes.items():
        k = (key,) if isinstance(key, int) else tuple(int(x) for x in key)
        if len(k) != m:
            raise ValidationError(f"mode key {key!r} has wrong dimension")
        if any(abs(x) > MAX_MODE for x in k):
            raise ValidationError(f"mode key {key!r} exceeds {MAX_MODE} in magnitude")
        out[k] = complex(amp)
        if not cmath.isfinite(out[k]):
            raise ValidationError(f"potential mode {key!r} amplitude {amp!r} is not finite")
        if abs(out[k]) > MAX_AMPLITUDE:
            raise ValidationError(f"potential mode {key!r} amplitude {amp!r} exceeds "
                                  f"{MAX_AMPLITUDE:g}")
    for k, amp in out.items():
        mk = tuple(-x for x in k)
        if mk not in out or abs(out[mk] - amp.conjugate()) > 1e-12:
            raise ValidationError(
                "potential modes must satisfy q(-k) = conj(q(k)) (real potential)")
    return out


def _fourier_spectrum(periods, modes, cutoff):
    """Sorted eigenvalues of -Laplace + Q on the Fourier box |n|_inf <= cutoff.

    Each block is the principal submatrix of the dense matrix on one
    connected component of the coupling graph n -> n + k, with the dense
    matrix's entry layout (H[n + k, n] = q(k)).  Blocks of equal size are
    stacked into one eigvalsh call.
    """
    m = len(periods)
    side = 2 * cutoff + 1
    coords = np.indices((side,) * m).reshape(m, -1).T - cutoff
    dim = len(coords)
    kvecs = 2.0 * math.pi * coords / np.array(periods)
    diag = np.sum(kvecs * kvecs, axis=1) + modes.get((0,) * m, 0.0).real

    strides = side ** np.arange(m - 1, -1, -1)
    couplings = []
    for k, amp in modes.items():
        if not any(k):
            continue
        src = np.flatnonzero(np.all(np.abs(coords + np.array(k)) <= cutoff, axis=1))
        couplings.append((amp, src, src + int(np.dot(k, strides))))

    # _normalize_modes keeps -k beside every k, so the graph is undirected
    nbrs = [[] for _ in range(dim)]
    for _, src, dst in couplings:
        for j, i in zip(src.tolist(), dst.tolist()):
            nbrs[j].append(i)
    label = [-1] * dim
    blocks = []
    for seed in range(dim):
        if label[seed] >= 0:
            continue
        label[seed] = len(blocks)
        members, stack = [seed], [seed]
        while stack:
            for i in nbrs[stack.pop()]:
                if label[i] < 0:
                    label[i] = label[seed]
                    members.append(i)
                    stack.append(i)
        blocks.append(sorted(members))

    label = np.array(label)
    sizes = np.array([len(b) for b in blocks])
    pos = np.empty(dim, dtype=int)
    for b in blocks:
        pos[b] = np.arange(len(b))
    real = all(amp.imag == 0 for amp, _, _ in couplings)
    slot = np.empty(len(blocks), dtype=int)
    lams = []
    for s in np.unique(sizes):
        ids = np.flatnonzero(sizes == s)
        slot[ids] = np.arange(len(ids))
        index = np.array([blocks[b] for b in ids])
        H = np.zeros((len(ids), s, s), dtype=float if real else complex)
        H[:, np.arange(s), np.arange(s)] = diag[index]
        for amp, src, dst in couplings:
            keep = sizes[label[src]] == s
            H[slot[label[src[keep]]], pos[dst[keep]], pos[src[keep]]] = \
                amp.real if real else amp
        lams.append(np.linalg.eigvalsh(H).ravel())
    return np.sort(np.concatenate(lams))


def torus_potential_trace(periods, modes, cutoff, t):
    """Trace of exp(-t(-Laplace + Q)) on a circle or torus.

    The operator is represented exactly on the Fourier modes |n|_inf <=
    cutoff: diagonal |k|^2 plus the convolution matrix of the potential
    modes; the trace of the matrix exponential is the partial spectral sum.
    Q couples mode n only to n + k for its mode vectors k, so the matrix is
    block diagonal over the connected components of that graph on the box:
    zero potential gives 1x1 blocks, one circle cosine mode n0 gives n0
    chains.  Each block is diagonalised on its own, as a real symmetric
    matrix when every amplitude is real, and the spectrum is computed once
    for all t.

    t is a positive scalar, which returns a float, or a 1-D array of them,
    which returns an array.  The Gershgorin tail guard runs at the smallest
    t, where the discarded modes weigh most.
    """
    ts = np.asarray(t, dtype=float)
    if ts.ndim > 1 or ts.size == 0:
        raise ValidationError("t must be a scalar or a non-empty 1-D array")
    if not np.all(np.isfinite(ts) & (ts > 0)):
        raise ValidationError("t must be positive and finite")
    if isinstance(periods, (int, float)):
        periods = (float(periods),)
    periods = tuple(float(p) for p in periods)
    if not all(0 < p < math.inf for p in periods):
        raise ValidationError("periods must be positive and finite")
    if min(periods) < MIN_LENGTH:
        raise ValidationError(f"period {min(periods)!r} is below {MIN_LENGTH:g}")
    if cutoff < 0:
        raise ValidationError("fourier cutoff must be >= 0")
    m = len(periods)
    modes = _normalize_modes(modes, m)

    qnorm = sum(abs(a) for a in modes.values())
    lmax = max(periods)
    tmin = float(ts.min())
    # Gershgorin: discarded modes have lambda >= (2 pi c'/lmax)^2 - qnorm
    tail = 0.0
    for cp in range(cutoff + 1, cutoff + 1 + _TAIL_SHELLS):
        shell = (2 * cp + 1) ** m - (2 * cp - 1) ** m
        lam = (2.0 * math.pi * cp / lmax) ** 2 - qnorm
        term = shell * math.exp(-tmin * max(lam, 0.0))
        tail += term
        if term < 1e-16 * max(tail, 1e-300) or lam > 60.0 / tmin:
            break
    else:
        raise NumericError(
            f"fourier tail bound did not settle within {_TAIL_SHELLS} shells at t={tmin}")
    if tail > 1e-10:
        raise ValidationError(
            f"fourier cutoff {cutoff} leaves tail bound {tail:.2e} > 1e-10 at t={tmin}")

    dim = (2 * cutoff + 1) ** m
    if dim > _MATRIX_BUDGET:
        raise ResourceError(f"fourier matrix dimension {dim} exceeds budget {_MATRIX_BUDGET}")

    lam = _fourier_spectrum(periods, modes, cutoff)
    flat = ts.ravel()
    rows = max(1, _EXP_CHUNK // lam.size)
    out = np.concatenate([np.exp(np.multiply.outer(-flat[i:i + rows], lam)).sum(axis=1)
                          for i in range(0, flat.size, rows)])
    return float(out[0]) if ts.ndim == 0 else out


# ---------------------------------------------------------------------------
# asymptotic fitting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FitResult:
    exponents: tuple
    coefficients: np.ndarray
    errors: np.ndarray
    condition_number: float

    def coefficient(self, exponent):
        for e, c in zip(self.exponents, self.coefficients):
            if abs(e - exponent) < 1e-12:
                return float(c)
        raise ValidationError(f"exponent {exponent} not in fit")


def fit_expansion(samples, m, exponents, bootstrap=200, seed=1234):
    """Weighted least squares of trace samples onto the basis t^e.

    Weights are 1/|value| (relative residuals); the t-grid must be geometric.
    Error bars come from a residual bootstrap with a fixed RNG seed so output
    is reproducible byte for byte.
    """
    samples = [(float(t), float(v)) for t, v in samples]
    if any(t <= 0 for t, _ in samples):
        raise ValidationError("sample times must be positive")
    exponents = tuple(float(e) for e in exponents)
    if len(samples) < 2 * len(exponents):
        raise ValidationError("need at least twice as many samples as exponents")
    ts = np.array([t for t, _ in samples])
    order = np.argsort(ts)
    ts = ts[order]
    ys = np.array([v for _, v in samples])[order]
    ratios = ts[1:] / ts[:-1]
    if np.max(np.abs(ratios - ratios[0])) > 1e-9 * ratios[0]:
        raise ValidationError("t-grid must be geometric")

    w = 1.0 / np.maximum(np.abs(ys), 1e-300)
    X = np.power.outer(ts, np.array(exponents)) * w[:, None]
    y = ys * w
    cond = float(np.linalg.cond(X))
    if cond > 1e12:
        raise NumericError(f"fit basis condition number {cond:.3e} exceeds 1e12")
    coef, *_ = np.linalg.lstsq(X, y, rcond=None)

    resid = y - X @ coef
    rng = np.random.default_rng(seed)
    boots = np.empty((bootstrap, len(exponents)))
    for b in range(bootstrap):
        yb = X @ coef + rng.choice(resid, size=len(resid), replace=True)
        boots[b], *_ = np.linalg.lstsq(X, yb, rcond=None)
    errors = boots.std(axis=0, ddof=1)

    return FitResult(exponents=exponents, coefficients=coef, errors=errors,
                     condition_number=cond)
