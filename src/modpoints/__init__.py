"""Exact verification toolkit for the moduli space of 8 points on P^1.

The package imports none of its modules: import the one you need, so that
a command loads only what it runs.
"""

__version__ = "0.1.0"
