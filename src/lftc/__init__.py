"""Parameter-free text classification from compression distances.

Per-class lists of dictionary compressors shortlist two candidate classes
by compressed size; normalized compression distance KNN over the candidate
classes' training texts makes the final call.

The package exports what the README's Library section uses; everything
else is imported from its module (``lftc.mcc``, ``lftc.cr``, ...).
"""

from .classifier import Pipeline, PipelineConfig, evaluate, evaluate_fewshot
from .corpus import load_csv

__version__ = "0.1.0"

__all__ = ["Pipeline", "PipelineConfig", "evaluate", "evaluate_fewshot", "load_csv", "__version__"]
