"""Shared test settings.

Property tests run under one hypothesis profile: derandomized, so every run
draws the same examples; no deadline, since per-example time varies with
machine load; a bounded example count to keep the suite's time flat; and no
example database on disk.
"""

from hypothesis import settings

settings.register_profile("rboxkit", derandomize=True, deadline=None, max_examples=60, database=None)
settings.load_profile("rboxkit")
