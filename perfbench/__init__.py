"""Seeded benchmark of the validator; see README.md."""
