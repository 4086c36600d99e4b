"""Graded commutative algebra over small prime fields.

Groebner machinery for submodules of free modules over quotient rings,
minimal free resolutions and negative syzygies, Ext/Tor through two
independent routes, and a small script language for running vanishing
experiments.
"""

__version__ = "0.1.0"
