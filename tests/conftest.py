"""Every interval, sphere and Landau level sum and every Bessel mode sum the suite
makes is summed past its certificate.

spectra._certified_trace stops a level or mode sum at the first n, through
quadrature.converge, whose tail bound is within the oracle's floor of the sum.
The autouse fixture below wraps `converge` as bound in `spectra`, keeps each
such sum, and after the test evaluates it again at 4n, wherever 4n stays under
the sum's cap: |S(4n) - S(n)| must be within the same floor of S(4n), the
oracle's own (1e-15 relative for the interval and Landau sums, 1e-14 for the
sphere, the caller's absolute tol for the Bessel modes, whose cap counts the
orders zaremba._scaled_half_bessel runs over).  The sums are evaluated again
only after the test and its own monkeypatches are done, so a test that counts
an oracle's work sees its own calls alone.  The Fourier box is left out: its
certificate does not cover the box's own eigenvalues (ROADMAP item 1).

Every hypothesis test runs under one settings profile: derandomized and with no
example database, so each draw, and any failing one, reproduces from the commit
alone.  A test's own @settings keeps its example count and deadline.
"""

import sys

import numpy as np
import pytest
from hypothesis import settings

from heatkern import spectra

settings.register_profile("reproducible", derandomize=True, database=None)
settings.load_profile("reproducible")

SUMMED_PAST = ("interval", "sphere", "landau", "Bessel mode")


class PastCertificate:
    """The certified sums of one test, each summed again at 4n by `check`."""

    def __init__(self, converge):
        self._converge, self.sums, self.checked = converge, [], []

    def converge(self, n, cap, estimate, error, floor, refusal, size=lambda n: n):
        result = self._converge(n, cap, estimate, error, floor, refusal, size)
        # the oracle's name is the `what` of the _certified_trace call
        what = sys._getframe(1).f_locals.get("what")
        if what in SUMMED_PAST and size(4 * result[1]) <= cap:
            self.sums.append((what, estimate, floor, result[0], result[1]))
        return result

    def check(self):
        sums, self.sums = self.sums, []
        for what, estimate, floor, total, n in sums:
            past = estimate(4 * n)
            gap = np.abs(past - total)
            assert (gap <= floor(past)).all(), (
                f"{what} sum moves by {gap.max():.3e} from n = {n} to {4 * n}, past its "
                f"floor {np.min(floor(past)):.3e}")
            self.checked.append((what, n))


@pytest.fixture(autouse=True)
def past_certificate():
    recorder = PastCertificate(spectra.converge)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(spectra, "converge", recorder.converge)
        yield recorder
    recorder.check()
