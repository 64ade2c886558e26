# repro-lint-module: repro.sim.fixture_good_env
"""Knobs go through the strict parsers."""
from repro.exec.env import env_flag, env_int, env_str, set_knob


def workers():
    return env_int("REPRO_WORKERS", 4, minimum=1)


def cache_dir():
    return env_str("REPRO_CACHE_DIR")


def force_inline():
    set_knob("REPRO_WORKERS", "1")


def full_suite():
    return env_flag("REPRO_FULL")
