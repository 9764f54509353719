"""Benchmark-facing names for the lattice engine.

A :class:`ProductGrid` raises a base grid of d rates to k coordinates, a
lattice of D = d^k candidate rate vectors.  Every count-level function
takes either grid kind: ``engine`` runs the recursion, ``model`` the pmf
and ``inference`` the coordinate estimates and their covariance.  The
names here are the same objects, kept for callers that import them from
this module.
"""

from .engine import init, update_stream
from .model import ProductGrid  # noqa: F401

multi_init = init
multi_update_stream = update_stream
