from .config import HE_GC, SECSH_GC, ProtocolConfig, Seeds, paper_faithful
from .engine import (
    DistributedModel,
    reconstruct_model,
    run_learning,
    setup,
)
from .transcript import Transcript, transcript_report

__all__ = [
    "HE_GC", "SECSH_GC", "ProtocolConfig", "Seeds", "paper_faithful",
    "DistributedModel", "reconstruct_model", "run_learning",
    "setup", "Transcript", "transcript_report",
]
