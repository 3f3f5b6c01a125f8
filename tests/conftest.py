"""Suite-wide test settings.

Hypothesis draws are derandomized (seeded from each test's source), and
no example database is kept, so every run replays the same examples.
"""

try:
    from hypothesis import settings
except ImportError:  # the property modules skip themselves
    pass
else:
    settings.register_profile(
        "replayable", derandomize=True, database=None, deadline=None
    )
    settings.load_profile("replayable")
