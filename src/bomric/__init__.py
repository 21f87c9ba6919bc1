"""Block operator matrices, operator Riccati equations, and reduced qubit dynamics."""

__version__ = "0.1.0"
