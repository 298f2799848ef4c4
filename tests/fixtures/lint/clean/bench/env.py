"""Fixture: benchmark helper reading knobs through the config."""

from repro import config


def sweep_width():
    return config.bench_jobs()


def cache_policy():
    return config.cache_policy()
