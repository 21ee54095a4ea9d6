"""Averaged p-Laplace estimation from score fields.

Estimates ball-averaged p-Laplace operators of a log-density from any
score field (an analytic Gaussian-mixture oracle or a small trained
diffusion model), provides provable error bounds for the boundary
estimator, and uses the 1-Laplace to flag memorized training points.

The package namespace holds the quick-start names only; everything else
is imported from its own module (``plaplace.gmm``, ``plaplace.bounds``, ...).
"""

from .estimators import EstimatorConfig, estimate_boundary
from .geometry import make_rng
from .gmm import draw_gmm, sample_gmm
from .score_model import NoiseSchedule, TrainConfig, train

__version__ = "0.1.0"
