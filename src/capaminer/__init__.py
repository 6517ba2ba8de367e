"""capaminer: pattern mining over repository metric series, pull-request
classification into corrective/preventive actions, and statistical
validation of pattern-action associations."""

__version__ = "0.1.0"

from .association import (  # noqa: F401
    CapaMapping,
    ContingencyTable,
    PairwiseTestResult,
    build_contingency,
    extract_mapping,
    filter_relevant,
    pairwise_tests,
    temporal_join,
)
from .classifier import (  # noqa: F401
    CapaLabel,
    ForestConfig,
    PullRequestRecord,
    RandomForest,
    StageOneLabel,
    classify_two_stage,
    compute_report,
    encode_features,
    label_by_keywords,
    split_train_test,
    train_forest,
)
from .mining import (  # noqa: F401
    ConsensusPattern,
    MiningConfig,
    PatternOccurrence,
    RepoCoverage,
    consensus_candidate,
    count_matches,
    mine_patterns,
)
from .stats import chi2_independence, two_sample_t_test  # noqa: F401
from .tsdist import (  # noqa: F401
    DistanceProfile,
    MetricSeries,
    distance_profile,
    znorm_distance,
    znormalize,
)
