"""Secrecy-preserving inter-organizational process mining.

Organizations hold fragments of shared process executions. Each one streams
its partition to a central miner in sealed, case-complete segments; the
miner's (simulated) enclave attests itself, merges fragments case by case,
and runs discovery or conformance checking without any party seeing another
party's raw events.
"""

__version__ = "0.1.0"
