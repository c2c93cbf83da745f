"""Automated mitral-inflow Doppler measurement from spectral Doppler images."""

__version__ = "0.1.0"
