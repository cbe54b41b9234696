"""Continual-learning safety fine-tuning via orthogonal gradient projection.

The optimizer estimates a low-rank capability subspace from reference-task
gradients, refreshed periodically, and restricts each safety update to the
orthogonal complement of that subspace, so new behaviour is acquired while
first-order interference with retained capabilities is removed.
"""

from .errors import (ConfigurationError, DimensionError, NumericError,
                     PreconditionError)
from .linalg import (OrthonormalBasis, angle_between, dot, gram_schmidt, norm,
                     project_complement)
from .metrics import (ComparisonTable, RunRecord, TaxReport, alignment_tax,
                      records_to_csv)
from .models import Batch, LossKind, ModelSpec, gradient, loss
from .optimizer import NO_REFRESH, Stage, TrainConfig, TrainResult, train
from .oracle import fd_gradient, steepest_check, taylor_scaling
from .subspace import CapabilitySubspace, estimate_subspace
from .tasks import (DifferentiableTask, TaskFamily, build_family, policy_family,
                    quadratic_family, regression_family)

__version__ = "0.1.0"
