"""End-to-end benchmark of the DCG reproduction (see README.md)."""
