"""Numerical laboratory for twisted products of natural Hamiltonians.

The package builds Hamiltonians of the form H = sum_r alpha^r(q) H_r,
where each H_r is a natural Hamiltonian on its own coordinate block and
the twist functions alpha^r come from the first inverse-row of a
block-structured separation matrix.  It integrates the full dynamics
and the per-block reduced dynamics, relates the two through block
clocks, and verifies the separation structure through first-integral,
eigenvalue, and curvature residuals.

Modules:

- ``expr``      expression language with exact derivatives: dual numbers
                and compiled jets of first and second order
- ``model``     block structures, separation matrices, twisted systems,
                the twist S^-1 and its derivatives
- ``dynamics``  adaptive Runge-Kutta integration, clocks, orbit comparison
- ``geometry``  tensor calculus residuals (Killing, torsion, curvature)
- ``catalog``   worked systems: pendula, oscillators, a four-body chain,
                and two flat 3-space metric families
- ``config``    INI-style run configuration files
- ``cli``       command-line interface over run configs
"""

from . import catalog, cli, config, dynamics, expr, geometry, model

__all__ = [
    "catalog",
    "cli",
    "config",
    "dynamics",
    "expr",
    "geometry",
    "model",
]

__version__ = "0.1.0"
