"""geobench: a benchmark harness for geoparsers.

Loads annotated corpora and a gazetteer, runs built-in or external
geoparsers over them, scores recognition and resolution with eight
metrics, and renders comparable leaderboards.
"""

from .adapters import AdapterError, AdapterProtocolError, AdapterTimeout, HttpGeoparser, ProcessGeoparser
from .corpus import (
    Corpus,
    CorpusFormatError,
    CorpusStats,
    Document,
    GeoPoint,
    GoldToponym,
    Violation,
    corpus_stats,
    degrade_case,
    load_corpus,
    load_manifest,
    save_corpus,
    save_manifest,
    validate_corpus,
)
from .gazetteer import (
    Gazetteer,
    GazetteerEntry,
    GazetteerError,
    IngestStats,
    ingest_gazetteer,
    load_index,
    lookup,
    normalize_name,
    save_index,
)
from .geoparser import (
    BuiltinGeoparser,
    GeoparserSpec,
    NoCandidateError,
    PredictedToponym,
    RecognizerConfig,
    create_geoparser,
    default_stoplist,
    parse,
    recognize_lexicon,
    resolve_population,
)
from .harness import (
    CorpusSource,
    Leaderboard,
    RunConfig,
    RunConfigError,
    cache_predictions,
    compare,
    evaluate,
    load_cached,
    load_run_config,
    render_report,
    run_benchmark,
)
from .metrics import (
    EvalReport,
    Matching,
    MetricsConfig,
    accuracy_at_threshold,
    align,
    auc_distance,
    build_report,
    distance_errors,
    geodesic_distance,
    mean_median,
    precision_recall_f1,
    recognition_accuracy,
)

__version__ = "0.1.0"
