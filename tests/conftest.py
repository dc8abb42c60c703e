"""Hypothesis runs derandomized, so every run draws the same examples,
and without a deadline, since brute-force oracles take variable time."""

from hypothesis import settings

settings.register_profile("nclocal", derandomize=True, deadline=None)
settings.load_profile("nclocal")
