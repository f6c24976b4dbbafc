"""Ensemble-averaged entanglement dynamics of random Hamiltonians.

A bipartite system A+B evolving under a random Hamiltonian has an exactly
computable ensemble-averaged reduced density matrix and purity.  This
package provides:

* :mod:`guedyn.symgroup` -- exact symmetric-group combinatorics and
  Weingarten functions (arbitrary-precision rationals);
* :mod:`guedyn.haar` -- exact symbolic averages of density-matrix trace
  moments over the eigenbasis group, with the permutation pairs counted
  through one class table of sigma tau^-1;
* :mod:`guedyn.spectral` -- eigenvalue-gas correlators, averaged curves
  (chi, xi, density-matrix coefficients, purity), Poisson-statistics
  counterparts, the large-d scaling limit, and extremum finding;
* :mod:`guedyn.sim` -- seeded Monte Carlo over sampled matrices with
  Schroedinger evolution, partial trace, and gap statistics;
* :mod:`guedyn.models` -- seven randomized spin-model ensembles, energy
  rescaling, and the time-integrated dynamics distance;
* :mod:`guedyn.cli` -- the ``guedyn`` command-line frontend.
"""

__version__ = "0.1.0"

from . import haar, models, sim, spectral, symgroup  # noqa: F401,E402
from .errors import NumericalError  # noqa: F401
