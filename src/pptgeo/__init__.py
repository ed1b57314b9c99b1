"""Convex geometry of 3x3 PPT states: state families, extremality tests,
positive/decomposable maps, and the exact combinatorics behind the
decomposable-cone bounds."""
