"""Core-side microarchitecture: the miss-signal ROB-flush cost."""

from repro.cpu.core import flush_penalty_ns

__all__ = ["flush_penalty_ns"]
