"""Baseline measurements COMB is compared against (paper §5)."""

from .netperf import DELAY_ITERS, NetperfConfig, NetperfResult, run_netperf
from .pingpong import PingPongConfig, PingPongResult, run_pingpong
from .whitebova import OverlapClassification, classify_overlap, classify_sizes

__all__ = [
    "DELAY_ITERS",
    "NetperfConfig",
    "NetperfResult",
    "OverlapClassification",
    "PingPongConfig",
    "PingPongResult",
    "classify_overlap",
    "classify_sizes",
    "run_netperf",
    "run_pingpong",
]
