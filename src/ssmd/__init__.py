"""Stochastic subgradient mirror descent with weighted iterate averaging."""

__version__ = "0.1.0"
