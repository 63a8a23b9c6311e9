"""Build shim for legacy editable installs.

Plain ``pip install -e .`` builds from ``pyproject.toml``; this file only
lets ``pip install -e . --no-use-pep517`` work in offline environments
without the ``wheel`` package.
"""

from setuptools import setup

setup()
