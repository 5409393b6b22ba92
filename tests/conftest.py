"""Test-wide settings.

Property tests run under one derandomized ``hypothesis`` profile: the same
examples on every run, no example database, and no per-example deadline, so
the suite is deterministic and its timing does not depend on the host.
"""
from hypothesis import settings

settings.register_profile("screenoff", derandomize=True, deadline=None, database=None)
settings.load_profile("screenoff")
