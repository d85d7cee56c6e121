"""Feasibility programs and protocol reconstruction for unitary discrimination.

Given a finite family of unitaries and a classification of them, the package
decides whether q oracle calls suffice to identify the class within a given
error, produces certificates for either answer, turns feasible solutions
into explicit protocols, verifies them by exact simulation, and computes
spectral lower bounds on the needed number of calls.
"""

__version__ = "0.1.0"
