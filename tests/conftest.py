"""Shared test settings.

Hypothesis runs under one derandomized profile: the examples are a fixed
function of each test, so the suite is deterministic, and no example
database is written.
"""

try:
    from hypothesis import settings
except ImportError:  # property tests skip themselves without hypothesis
    pass
else:
    settings.register_profile(
        "mvfbm", derandomize=True, database=None, deadline=None, max_examples=30
    )
    settings.load_profile("mvfbm")
