import platform

import numpy as np

import advplan


def _versions() -> str:
    return (
        f"advplan {advplan.__version__}, numpy {np.__version__}, "
        f"Python {platform.python_version()}"
    )


def pytest_report_header(config):
    """Name the versions a run used: the bit-for-bit tests pin numpy's
    reduction order, which they were checked against on numpy 2.4.6."""
    return _versions()


def pytest_terminal_summary(terminalreporter, config):
    """``-q`` drops the header, so a quiet run names the versions at its end."""
    if config.option.verbose < 0:
        terminalreporter.write_line(_versions())
