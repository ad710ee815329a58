"""The performance ledger (see README.md beside this file)."""
