"""Numerical laboratory for averaging inequalities on the discrete torus.

Function tables on Z_m^n, structured averaging operators with separable
fast paths, exact inequality evaluators, a coefficient-recovery lab for the
shell difference identity, and extremal search over tables.
"""

__version__ = "0.1.0"
