"""Shared pytest plumbing and test helpers.

The acceptance tests register one line per criterion here; the terminal
summary hook replays them after the run so they survive output capture.
``counting_kernel`` counts the kernel evaluations a call makes on a sample.
"""

import threading
from dataclasses import replace

import numpy as np

acceptance_lines: list = []


def report_acceptance(line: str) -> None:
    acceptance_lines.append(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_lines:
            terminalreporter.write_line(line)


def counting_kernel(base, n: int):
    """``base`` with its ``fn`` wrapped to count evaluations on length-n arrays.

    Returns the kernel and a list that gains one entry per such evaluation;
    each one is a pass of the kernel over a whole sample of size n, and the
    entry is the ``threading.get_ident()`` of the thread that made it.
    """
    calls = []

    def fn(u):
        if np.ndim(u) == 1 and np.size(u) == n:
            calls.append(threading.get_ident())
        return base.fn(u)

    return replace(base, fn=fn), calls
