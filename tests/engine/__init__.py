"""Tests for the execution engine (:mod:`repro.engine`)."""
