import platform

import numpy as np
import pytest
import yaml

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


_REAL_YAML_LOAD = yaml.load


def yaml_parses(text: str, loader) -> str:
    """The ``repr`` of what ``loader`` builds from ``text``, or ``YAMLError``."""
    try:
        return repr(_REAL_YAML_LOAD(text, Loader=loader))
    except yaml.YAMLError:
        return "YAMLError"


@pytest.fixture(autouse=True)
def configs_parse_alike_under_both_yaml_loaders(monkeypatch):
    """Every config a test loads gives the same objects, or a ``YAMLError``
    alike, under libyaml's safe loader and PyYAML's pure-Python one."""
    fast = getattr(yaml, "CSafeLoader", None)

    def load(stream, Loader):
        if Loader is fast and isinstance(stream, str):
            assert yaml_parses(stream, fast) == yaml_parses(stream, yaml.SafeLoader), stream
        return _REAL_YAML_LOAD(stream, Loader=Loader)

    monkeypatch.setattr(yaml, "load", load)
