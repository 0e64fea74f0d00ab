"""Random two-qubit-gate circuits and their entanglement statistics.

Simulates the repeated-random-gate protocol on dense statevectors, tracks
multipartite entanglement under linear and von Neumann measures against
exact Haar-average baselines, and contrasts the gate count needed for
convergence with the total physical time under time-optimal gate
durations.

Each module's ``__all__`` is its public API; the package re-exports all but cli's.
"""
from .brachistochrone import *
from .entanglement import *
from .haar_baseline import *
from .protocol import *
from .qstate import *

__version__ = "0.1.0"
