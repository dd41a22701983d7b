"""Interval edge-colorings of outerplanar graphs.

Core pieces: graph values and family generators (graphs), coloring
validation (coloring), 2-connected outerplanar recognition and structure
(outerplanar), an exact backtracking solver (solver), the constructive
subcubic colorer (subcubic) with its reduction peel (peel), and the
triangular-fan colorer (fan). The command line front end lives in cli.
"""

__version__ = "0.1.0"
