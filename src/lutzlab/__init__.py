"""Numerical laboratory for overtwisted tube-model contact forms.

Modules
-------
profile      radial profile pairs, continuity solve, mollification
reeb         Reeb dynamics, action minima, Conley-Zehnder indices
family       the two-parameter form family, volumes, compensation
distance     certified Banach-Mazur bound certificates
persistence  action-filtered DG-algebra barcodes over exact rationals
cli          command-line front end

The package root re-exports nothing, so importing it loads no numpy:
import the submodule that holds a name (`from lutzlab import persistence`).
"""

__version__ = "0.1.0"
