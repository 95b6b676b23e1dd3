"""exdil: exciton diffusion length estimation on randomly perturbed films.

The package solves a screened diffusion equation over a thin film whose
absorbing interface fluctuates randomly, computes expected
photoluminescence either by collocation over the coefficient space or by a
perturbation expansion in the roughness size, and estimates the diffusion
length from photoluminescence curves by Newton iteration on a least-squares
misfit.

The modules are the API: each public name is reached through the module
that defines it (``from exdil import inverse``, then
``inverse.newton_estimate``).  Importing the package loads every module but
:mod:`exdil.cli`.
"""

__version__ = "0.1.0"

from . import (asymptotic, collocation, experiments, fd_core, forward_mapped,
               interface, inverse)
