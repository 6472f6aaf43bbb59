"""satkit: compile logic to CNF, solve it with CDCL, learn the branching."""

__version__ = "0.1.0"

__all__ = ["__version__"]
