"""Shared pytest plumbing and test helpers.

The acceptance tests register one line per criterion here; the terminal
summary hook replays them after the run so they survive output capture.
``counting_kernel`` records the kernel evaluations a call makes.
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


def counting_kernel(base):
    """``base`` with its ``fn`` wrapped to record every evaluation.

    Returns the kernel and a list that gains one ``(thread, points)`` entry
    per evaluation: the ``threading.get_ident()`` of the thread that made it
    and the number of points it evaluated.  A local fit evaluates the kernel
    once, on its candidate window, so the entries count kernel passes.
    """
    calls = []

    def fn(u):
        calls.append((threading.get_ident(), np.size(u)))
        return base.fn(u)

    return replace(base, fn=fn), calls
