"""Entanglement-based qutrit key distribution: analysis and simulation toolkit."""
