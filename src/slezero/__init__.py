"""Numerics for multiple chordal SLE(0) with marked points.

The package computes symmetric-divisor partition functions, integrates the
coupled Loewner flow they drive, builds the associated quadratic
differential, traces its horizontal trajectories, and cross-checks the two
pictures against each other.
"""

__version__ = "0.1.0"
