"""Compatibility alias kept for the end-to-end benchmark's tracer."""

from .core import Pipeline

# old name of Pipeline; sole consumer: e2ebench/tracer.py wraps its run()
ArrayPipeline = Pipeline
