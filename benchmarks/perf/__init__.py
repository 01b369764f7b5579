"""The composed-stack performance benchmark (see README.md in this directory)."""
