"""Test-wide Hypothesis settings.

Property tests build catalogs, kernels and walkers whose first example can
take far longer than Hypothesis's 200 ms default deadline on a slow or shared
runner, so no test has a deadline; each test sets only its example count.
"""

from hypothesis import settings

settings.register_profile("urnmix", deadline=None)
settings.load_profile("urnmix")
