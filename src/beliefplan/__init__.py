"""Belief-space planning over sparse Gaussian information matrices.

Core pieces:

- ``sparse``: symmetric/triangular sparse kernels (Cholesky, the
  panel fold behind factor updates and sparsification, log-determinants);
- ``belief``: Gaussian beliefs in square-root information form, entropy and
  the posterior-entropy planning objective;
- ``sparsify``: belief sparsification and uninvolved-variable detection;
- ``decision``: decision problems, action selection, loss/offset/consistency
  analysis;
- ``bounds``: pre- and post-solution quality-of-solution bounds;
- ``scenario``: synthetic 2-D pose-SLAM benchmark generator and session
  runner;
- ``cli``: command-line entry point.
"""

from .belief import CandidateAction, GaussianBelief, LayoutBlock, VariableLayout
from .decision import DecisionProblem, Solution
from .sparse import SparseRowBlock, SparseSymmetric, UpperTriangular
from .sparsify import InvolvementMask, SparsificationSpec

__all__ = [
    "CandidateAction",
    "DecisionProblem",
    "GaussianBelief",
    "InvolvementMask",
    "LayoutBlock",
    "Solution",
    "SparseRowBlock",
    "SparseSymmetric",
    "SparsificationSpec",
    "UpperTriangular",
    "VariableLayout",
]
