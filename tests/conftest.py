"""Hypothesis settings shared by every property test.

Each example sequence is derived from the test alone (``derandomize``), so a
run is reproducible and writes no example database. An example has no
deadline, since one example's time varies with its instance and the
machine. A test's ``@settings`` sets only its ``max_examples``.
"""

from hypothesis import settings

settings.register_profile("ratesched", derandomize=True, deadline=None)
settings.load_profile("ratesched")
