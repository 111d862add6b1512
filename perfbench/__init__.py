"""End-to-end benchmark of the ZOLC reproduction (see README.md)."""
