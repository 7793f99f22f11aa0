"""Pairwise-factorized reconstruction of multi-qubit quantum processes.

Workflow: simulate a noisy n-qubit gate layer, collect exact or sampled
two-qubit tomography for every qubit pair, then fit a product of two-qubit
factor channels to those reductions with a CPTP-penalized least-squares
solver.  Every public name is imported from its submodule; the package
itself holds only ``__version__``.  See the README for the CLI and file
formats.
"""

__version__ = "0.1.0"
