"""twistlog: exact symbolic computations in truncated tensor algebras over
the first homology of a compact surface with one boundary component.

The package provides group-like (symplectic) expansions of the fundamental
group, the loop invariant L attached to a based loop, logarithms of Dehn
twists, Johnson map components, and a certificate suite that re-verifies the
algebraic identities tying these together.  All arithmetic is exact rational.
"""

__version__ = "0.1.0"
