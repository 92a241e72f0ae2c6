"""Whole-run benchmark of the ``repro`` scale checker.

``run.py`` is the entry point; every measured run executes in a fresh
process (``iteration.py``).  ``spans.py`` holds the out-of-program span
tracer, ``layers.py`` maps the program's modules onto layers and derives
the per-layer metrics, and ``workloads.py`` defines the workloads.
"""
