# repro-lint-module: repro.sim.fixture_string_waiver
"""A waiver spelled inside a string literal is not a comment."""
import time

MSG = "# repro: allow(determinism) — not a comment"
T = time.time()
