"""Toolkit for searching, decoding and verifying Legendre pairs.

A Legendre pair is two {-1,+1} sequences of odd length whose periodic
autocorrelations sum to -2 at every nonzero lag.  The package provides exact
PSD spectrum filters at lag l/3, union-of-orbits search with fingerprint
matching, lexicographic rank decoding of published solutions, and Hadamard
matrix construction of order 2l+2.  Import each name from its module.
"""

__version__ = "0.1.0"
