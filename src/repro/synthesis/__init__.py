"""The abstraction-based enumerative synthesizer (paper Alg. 1).

:func:`~repro.synthesis.synthesizer.synthesize` is the public entry point;
it enumerates query skeletons, instantiates holes breadth-first, prunes
partial queries through a pluggable abstraction and collects queries whose
provenance-tracking output is consistent with the user demonstration.
"""

from repro.synthesis.config import SynthesisConfig
from repro.synthesis.enumerator import SearchStats, SynthesisResult
from repro.synthesis.equivalence import same_output
from repro.synthesis.ranking import rank_queries
from repro.synthesis.session import CHECKPOINT_VERSION, StepReport, SynthesisSession
from repro.synthesis.skeletons import construct_skeletons
from repro.synthesis.stop import (
    CallableStop,
    GroundTruthStop,
    StopSpec,
    as_stop_spec,
)
from repro.synthesis.synthesizer import Synthesizer, build_abstraction, synthesize

__all__ = [
    "SynthesisConfig", "Synthesizer", "synthesize", "build_abstraction",
    "SynthesisSession", "StepReport", "CHECKPOINT_VERSION",
    "SearchStats", "SynthesisResult",
    "construct_skeletons", "rank_queries", "same_output",
    "StopSpec", "GroundTruthStop", "CallableStop", "as_stop_spec",
]
