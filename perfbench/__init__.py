"""End-to-end benchmark with a traced per-layer breakdown (see run.py)."""
