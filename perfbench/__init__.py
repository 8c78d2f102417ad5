"""Session benchmark for enclavemine; see run.py."""
