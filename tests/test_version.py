"""The package's version is the one pyproject.toml declares."""
from __future__ import annotations

import re
from pathlib import Path

import subthz_chan

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_pyproject_version_is_the_package_version():
    # a regex, not tomllib, which Python 3.10 lacks
    project = re.search(r"^\[project\]$(.*?)(?=^\[|\Z)", PYPROJECT.read_text(encoding="utf-8"), re.MULTILINE | re.DOTALL)
    versions = re.findall(r'^version\s*=\s*"([^"]+)"\s*$', project.group(1), re.MULTILINE)
    assert versions == [subthz_chan.__version__]
