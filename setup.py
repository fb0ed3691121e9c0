"""Legacy setup script.

The execution environment is offline and lacks the ``wheel`` package, so
PEP 517 editable installs fail; this setup.py lets ``pip install -e .`` use
the classic ``setup.py develop`` path.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Sparse global abstract interpretation for C-like languages "
        "(PLDI 2012 reproduction)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
)
