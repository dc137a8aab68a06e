"""End-to-end benchmark of the prefetching simulator.

``python3 perfbench/run.py`` is the entry point; see ``perfbench/README.md``.
"""
