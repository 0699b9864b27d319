"""Seeded benchmark for isometry-lab; run it with `python3 perfbench/run.py`."""
