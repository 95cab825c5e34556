"""Setuptools entry point.

The only packaging metadata in the repository (there is no
pyproject.toml): ``pip install -e .`` and the legacy ``setup.py
develop`` path both read it. Where neither can run offline,
``scripts/dev_install.py`` links ``src/`` into site-packages instead.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Reproduction of 'Minimizing Response Time for Quorum-System "
        "Protocols over Wide-Area Networks' (Oprea & Reiter, DSN 2007)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy>=1.24", "scipy>=1.10", "networkx>=3.0"],
)
