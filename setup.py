"""Package metadata for the ``repro`` library.

This file is the whole build configuration. It also installs the package in
environments without the ``wheel`` package (where PEP-660 editable installs are
unavailable), via ``pip install -e . --no-use-pep517`` or
``python setup.py develop``.

It ships the C source of the solvers' kernel as package data and compiles
nothing: the first import of :mod:`repro.core.kernel` builds the kernel next to
it (or, where the package cannot be written, into a private temporary
directory), so a C99 compiler (``cc``) is required, and without one
``import repro`` raises :class:`ImportError`.
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
    package_data={"repro.core": ["kernel.c"]},
    install_requires=["numpy"],
)
