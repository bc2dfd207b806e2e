"""plancode: compression for graph classes embedded on low-genus surfaces."""

from .codec import EncodeResult, Stats, decode, encode, stats
from .embgraph import EmbeddedGraph
from .errors import (
    PlancodeError,
    InvalidEmbedding,
    Disconnected,
    NotInClass,
    CodecError,
    ChecksFailed,
)
from .table import CLASS_ORDER, get_class

__version__ = "0.1.0"

__all__ = [
    "EmbeddedGraph",
    "EncodeResult",
    "Stats",
    "encode",
    "decode",
    "stats",
    "CLASS_ORDER",
    "get_class",
    "PlancodeError",
    "InvalidEmbedding",
    "Disconnected",
    "NotInClass",
    "CodecError",
    "ChecksFailed",
    "__version__",
]
