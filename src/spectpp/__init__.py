"""Speculative and autoregressive sampling for Transformer temporal point
processes, with classical ground-truth simulators and statistical validation."""

__version__ = "0.1.0"
