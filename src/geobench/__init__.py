"""geobench: a benchmark harness for geoparsers.

Loads annotated corpora and a gazetteer, runs built-in or external
geoparsers over them, scores recognition and resolution with eight
metrics, and renders comparable leaderboards. The names below are the
library surface; everything else is internal to its module.
"""

from .adapters import AdapterError
from .corpus import CorpusFormatError, degrade_case, load_corpus
from .gazetteer import GazetteerError, ingest_gazetteer, load_index, save_index
from .geoparser import GeoparserSpec
from .harness import RunConfigError, compare, evaluate, load_run_config, render_report, run_benchmark
from .metrics import EvalReport, MetricsConfig

__all__ = [
    "GeoparserSpec",
    "MetricsConfig",
    "EvalReport",
    "evaluate",
    "compare",
    "render_report",
    "run_benchmark",
    "load_run_config",
    "RunConfigError",
    "ingest_gazetteer",
    "load_index",
    "save_index",
    "GazetteerError",
    "load_corpus",
    "degrade_case",
    "CorpusFormatError",
    "AdapterError",
]

__version__ = "0.1.0"
