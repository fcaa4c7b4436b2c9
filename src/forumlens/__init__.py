"""forumlens: statistical and generative-model analysis of forum thread corpora."""

__version__ = "0.1.0"

from .corpus import (
    Corpus,
    Course,
    CourseCategory,
    CourseFactors,
    Post,
    Thread,
    ThreadLabel,
    ThreadRows,
    TokenTable,
    UnigramModel,
    ingest_corpus,
    serialize_corpus,
    tokenize,
    unigram_model,
)
from .genmodel import (
    GenerativeSpec,
    SampledThread,
    adversarial_spec,
    make_spec,
    sample_corpus,
    sample_thread,
    separating_plane,
)
from .classify import (
    EvalReport,
    NbMode,
    NbModel,
    SvmModel,
    evaluate,
    predict_nb,
    roc_sweep,
    train_nb,
    train_svm,
)
from .topics import (
    KeywordRanking,
    extract_keywords,
    normalized_kendall_tau,
    surprise_weights,
    top_k,
    topk_set_difference,
)
from .ranking import (
    RankWindow,
    RankedList,
    hits_rank,
    tfidf_rank,
    topical_rank,
    topk_diff,
)
from .stats import (
    ActivitySeries,
    OlsFit,
    PanelTarget,
    build_series,
    fit_course_trend,
    fit_panel_ols,
    ols,
    partition_by_threshold,
    qq_points,
    shapiro_wilk,
    smalltalk_moving_average,
    trim_and_diff,
    two_sample_tests,
)
