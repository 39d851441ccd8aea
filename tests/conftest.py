"""Test-session settings shared by every module."""

from hypothesis import settings

# derandomized, with no example database and no deadline: tier-1 runs the same
# examples on every run and machine, and a slow machine never fails a
# property on timing alone
settings.register_profile("tier1", derandomize=True, database=None,
                          deadline=None, max_examples=25)
settings.load_profile("tier1")
