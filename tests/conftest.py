"""Every interval, sphere and Landau level sum, every Bessel mode sum and every rule
average the suite makes is evaluated again past its certificate.

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

quadrature.average runs through the same driver, bound in `quadrature`: each
rule average (a Cartan or sphere rule, or a test's own) that settled at n is
taken again on the next rule, 2n, wherever 2n is within the average's `last`
cap, and must be within that average's own tolerance of it.

Every hypothesis test runs under one settings profile: derandomized and with no
example database, so each draw, and any failing one, reproduces from the commit
alone.  A test's own @settings keeps its example count and deadline.
"""

import functools
import sys
from functools import partial

import numpy as np
import pytest
from hypothesis import settings

from heatkern import quadrature, spectra

settings.register_profile("reproducible", derandomize=True, database=None)
settings.load_profile("reproducible")

SUMMED_PAST = ("interval", "sphere", "landau", "Bessel mode")


class PastCertificate:
    """The certified sums and rule averages of one test, each evaluated again by
    `check`: a sum at 4n, an average on the next rule, 2n."""

    def __init__(self, converge):
        self._converge, self.sums, self.checked = converge, [], []

    def converge(self, n, cap, estimate, error, floor, refusal, size=lambda n: n):
        result = self._converge(n, cap, estimate, error, floor, refusal, size)
        caller = sys._getframe(1)
        if caller.f_code is quadrature.average.__code__:
            what, kind, past = caller.f_locals["name"], "average", 2 * result[1]
        else:
            # the oracle's name is the `what` of the _certified_trace call
            what, kind, past = caller.f_locals.get("what"), "sum", 4 * result[1]
        if (kind == "average" or what in SUMMED_PAST) and size(past) <= cap:
            self.sums.append((what, kind, estimate, floor, result[0], past, result[1]))
        return result

    def check(self):
        sums, self.sums = self.sums, []
        for what, kind, estimate, floor, total, past_n, n in sums:
            past = estimate(past_n)
            gap = np.abs(past - total)
            assert (gap <= floor(past)).all(), (
                f"{what} {kind} moves by {np.max(gap):.3e} from n = {n} to {past_n}, past "
                f"its floor {np.min(floor(past)):.3e}")
            self.checked.append((what, n))


@pytest.fixture(autouse=True)
def past_certificate():
    recorder = PastCertificate(spectra.converge)
    # called with no frame of its own between the caller and the recorder, and read
    # as the driver itself by inspect, as the public-parameter test reads quadrature
    converge = functools.update_wrapper(partial(PastCertificate.converge, recorder),
                                        recorder._converge)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(spectra, "converge", converge)
        patch.setattr(quadrature, "converge", converge)
        yield recorder
    recorder.check()
