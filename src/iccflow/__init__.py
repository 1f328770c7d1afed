"""Static privacy-leak analysis across app components and apps.

Pipeline: parse ``.cir`` models, resolve ICC links, rewrite ICC calls into
direct calls, then run field- and context-sensitive taint propagation and
classify each leak as Intra, ICC, or IAC.
"""

from .icc import IccLink, IntentValue, match_links, resolve_intent_values
from .instrument import instrument_model, synthesize_dummy_main
from .ir import AppModel, Component, ComponentKind, StmtId
from .parser import load_app, parse_app, serialize_app
from .taint import AnalysisReport, SourceSinkConfig, TaintedPath, analyze

__version__ = "0.1.0"

__all__ = [
    "AnalysisReport",
    "AppModel",
    "Component",
    "ComponentKind",
    "IccLink",
    "IntentValue",
    "SourceSinkConfig",
    "StmtId",
    "TaintedPath",
    "analyze",
    "instrument_model",
    "load_app",
    "match_links",
    "parse_app",
    "resolve_intent_values",
    "serialize_app",
    "synthesize_dummy_main",
]
