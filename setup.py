"""Packaging for the ``repro`` library, whose sources live under ``src/``.

``pip install .`` installs the ``repro`` package and its one runtime
dependency (numpy); the version is read from ``src/repro/__init__.py``.
The test and benchmark tools are listed in ``requirements.txt``.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

VERSION = re.search(
    r'^__version__ = "([^"]+)"$',
    (Path(__file__).parent / "src" / "repro" / "__init__.py").read_text(),
    re.MULTILINE,
).group(1)

setup(
    name="repro",
    version=VERSION,
    description=(
        "Reproduction of Zhu & Hajek, Stability of a peer-to-peer "
        "communication system (PODC 2011)"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    install_requires=["numpy"],
)
