"""Legacy setup shim holding the package metadata.

The execution environment has no `wheel` package and no network access, so
PEP 517 editable installs (which build a wheel) fail.  This shim lets
``pip install -e . --no-use-pep517`` (and plain ``pip install -e .`` on
newer toolchains) work everywhere.  The repository has no pyproject.toml:
all metadata lives here.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.9",
)
