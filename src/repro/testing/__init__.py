"""Test-support utilities shipped with the library (fault injection)."""

from repro.testing.faults import (
    CrashingCheckpoint,
    SimulatedKill,
    TransientIOErrors,
    corrupt_bytes,
    flip_bit,
    truncate_file,
)

__all__ = [
    "CrashingCheckpoint",
    "SimulatedKill",
    "TransientIOErrors",
    "corrupt_bytes",
    "flip_bit",
    "truncate_file",
]
