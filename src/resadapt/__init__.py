"""resadapt: a desk-scale continual-learning laboratory.

Residual key/value adapters attach to a frozen toy dual encoder without
disturbing it (values start at zero, so a fresh adapter is an exact
identity). Per-task Gaussians over frozen features pick which adapters to
apply at inference and how strongly, so unseen-domain inputs fall back to
the frozen model. The bench subpackage provides the incremental harness,
metrics, verifiers, and CLI.
"""

from .attention import Adapter, FrozenAttention, PromptBaseline
from .backbone import DualEncoder, EncoderSpec, EncoderStack
from .learner import AdapterSet, PoolEntry, TaskPool, TrainConfig
from .taskdist import TaskGaussian

__version__ = "0.1.0"

__all__ = [
    "Adapter",
    "AdapterSet",
    "DualEncoder",
    "EncoderSpec",
    "EncoderStack",
    "FrozenAttention",
    "PoolEntry",
    "PromptBaseline",
    "TaskGaussian",
    "TaskPool",
    "TrainConfig",
    "__version__",
]
