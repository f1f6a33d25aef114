"""Package metadata and the ``spinner-repro`` console script.

Install with ``pip install .`` (or ``pip install --no-build-isolation .``
offline); the ``spinner-repro`` command then runs :func:`repro.cli.main`.
The version is read from ``src/repro/_version.py`` without importing the
package, so building needs only setuptools.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

_VERSION_FILE = Path(__file__).parent / "src" / "repro" / "_version.py"
_VERSION = re.search(
    r'^__version__ = "([^"]+)"$', _VERSION_FILE.read_text(), re.MULTILINE
).group(1)

setup(
    name="spinner-repro",
    version=_VERSION,
    description="Reproduction of Spinner: scalable graph partitioning in the cloud",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=["numpy"],
    entry_points={"console_scripts": ["spinner-repro = repro.cli:main"]},
)
