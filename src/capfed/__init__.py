"""Differentially private spherical-cap clustering with consensus-aware federated training."""

__version__ = "0.1.0"
