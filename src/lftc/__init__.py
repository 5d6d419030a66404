"""Parameter-free text classification from compression distances.

Per-class lists of dictionary compressors shortlist two candidate classes
by compressed size; normalized compression distance KNN over the candidate
classes' training texts makes the final call.
"""

from .compression import (
    CompressionError,
    DeflateBackend,
    DictCompressor,
    SourceSpan,
    TrainedDictionary,
    UnsupportedBackendError,
    ZstdBackend,
    ncd,
    train_dictionary,
)
from .corpus import (
    Corpus,
    DatasetError,
    FewShotSpec,
    LabeledText,
    concat_class_text,
    few_shot_sample,
    load_csv,
    save_csv,
)
from .cr import (
    GoldData,
    NcdNeighbor,
    extract_gold,
    ncd_distances,
    reason_detail,
    vote_detail,
)
from .mcc import (
    CandidatePair,
    ClassCompressorList,
    ClassScore,
    DegenerateCorpusError,
    SegmentPlan,
    build_all_lists,
    build_class_list,
    score_query,
    segment_count,
    select_candidates,
)
from .classifier import (
    Pipeline,
    PipelineConfig,
    Prediction,
    evaluate,
    evaluate_fewshot,
)
from .report import EvalReport, confidence_interval

__version__ = "0.1.0"
