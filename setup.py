"""Setuptools shim.

There is no ``pyproject.toml`` or ``setup.cfg``: ``setup()`` is called
without metadata, and setuptools' automatic discovery picks up the ``repro``
package under ``src/`` (the distribution is named ``UNKNOWN``, version
``0.0.0``).  The tests, the benchmarks and CI install nothing; they run from
the source tree with ``PYTHONPATH=src``.  An editable install also works on
machines whose pip/setuptools tool-chain lacks the ``wheel`` package or
network access for build isolation
(``pip install -e . --no-build-isolation --no-use-pep517``).
"""

from setuptools import setup

setup()
