"""Distance spectra and distance Estrada indices of connected graphs.

The library computes exact integer distance matrices, eigendecomposes them
with a dependency-free symmetric solver, evaluates a nine-entry catalog of
bounds and identities on the distance Estrada index, and verifies the whole
catalog exhaustively over small labeled graphs.  Import each name from
its submodule: graphs, metric, spectra, numeric, bounds, records, verify,
cli.
"""

__version__ = "0.1.0"
