"""Benchmark harness for the pricedisclosure CLI; see README.md here."""
