"""qsim: desk-scale toolkit for quantum information flow.

Tracks which information a unitary interaction copies (only discrete
projector labels), treats the rest as decision-theoretic betting weight,
and quantifies how imperfect knowledge-selection processes raise
subsystem entropy.
"""

__version__ = "0.3.0"
