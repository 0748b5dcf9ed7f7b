"""Shared pytest plumbing.

The acceptance tests register one line per criterion here; the terminal
summary prints them after the run regardless of output capturing.

Property tests run under one Hypothesis profile: derandomized (the same
examples on every run, no example database) and without a deadline, so
they can neither flake nor fail on the timing of a busy machine.
"""

from hypothesis import settings

settings.register_profile("bilip", derandomize=True, deadline=None)
settings.load_profile("bilip")

ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
