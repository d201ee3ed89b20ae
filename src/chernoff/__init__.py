"""Chernoff-type iteration of convex monotone expectation operators.

The package builds discrete semigroup approximations I(h)^k f for
families of (possibly nonlinear) expectation steps, smooths them with a
space-time mollifier whose derivative constants are computed exactly,
and checks the measured approximation errors against explicit
convergence-rate bounds.
"""

__version__ = "0.1.0"
