# repro-lint-module: repro.sim.fixture_bad_env
"""Every spelling of raw environment access."""
import os
from os import environ


def workers():
    return int(os.environ.get("REPRO_WORKERS", "4"))


def cache_dir():
    return os.getenv("REPRO_CACHE_DIR")


def force_inline():
    os.environ["REPRO_WORKERS"] = "1"


def aliased():
    return environ.get("REPRO_LOG")
