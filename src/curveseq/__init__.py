"""curveseq: exact verification of integrality and mod-p congruence properties
of a polynomial-coefficient linear recurrence attached to a genus-1 curve."""

__version__ = "0.1.0"
