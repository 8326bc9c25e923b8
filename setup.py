"""Setup shim (the execution environment has no ``wheel`` package and no
network, so PEP 517 editable installs fail; ``pip install -e .
--no-use-pep517 --no-build-isolation`` uses this shim instead).

The library itself is dependency-free pure Python.
"""

from setuptools import find_packages, setup

setup(
    name="repro-sickle",
    version="0.5.0",
    description=("Reproduction of 'Synthesizing analytical SQL queries "
                 "from computation demonstration' (PLDI 2022)"),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.11",
    install_requires=[],
    extras_require={
        "test": ["pytest", "hypothesis", "pytest-benchmark"],
    },
)
