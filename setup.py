"""Package metadata for the ``repro`` library.

This file is the whole build configuration. It also installs the package in
environments without the ``wheel`` package (where PEP-660 editable installs are
unavailable), via ``pip install -e . --no-use-pep517`` or
``python setup.py develop``.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

INIT = Path(__file__).resolve().parent / "src" / "repro" / "__init__.py"
VERSION = re.search(
    r'^__version__ = "([^"]+)"', INIT.read_text(encoding="utf-8"), re.MULTILINE
).group(1)

setup(
    name="repro",
    version=VERSION,
    description=(
        "Length-constrained maximum-sum region (LCMSR) queries over road networks"
    ),
    python_requires=">=3.9",
    package_dir={"": "src"},
    packages=find_packages("src"),
    install_requires=["numpy"],
)
