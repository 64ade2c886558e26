"""Strict REPRO_* environment-knob parsing."""

import logging
import os
import pathlib
import re

import pytest

import repro
from repro.analysis.experiments import (FAST_WORKLOADS,
                                        instruction_budget,
                                        selected_workloads)
from repro.exec.cache import CACHE_SALT, default_cache_dir, effective_salt
from repro.exec.resolver import default_workers
from repro.exec.env import (EnvKnobError, env_choice, env_flag,
                            env_float, env_int)
from repro.obs.log import resolve_level

#: Every knob the package reads: name -> (reader, default when unset).
KNOBS = {
    "REPRO_CACHE_DIR": (default_cache_dir, None),
    "REPRO_CACHE_SALT": (effective_salt, CACHE_SALT),
    "REPRO_FULL": (selected_workloads, FAST_WORKLOADS),
    "REPRO_INSTRUCTIONS": (instruction_budget, 100_000),
    "REPRO_LOG": (resolve_level, logging.INFO),
    "REPRO_WORKERS": (default_workers, os.cpu_count() or 1),
}

#: Knobs with a value shape (the free-form path and salt have none).
SHAPED = sorted(set(KNOBS) - {"REPRO_CACHE_DIR", "REPRO_CACHE_SALT"})


class TestEnvInt:
    def test_unset_returns_default(self, monkeypatch):
        monkeypatch.delenv("X_KNOB", raising=False)
        assert env_int("X_KNOB") is None
        assert env_int("X_KNOB", default=4) == 4

    def test_empty_returns_default(self, monkeypatch):
        monkeypatch.setenv("X_KNOB", "  ")
        assert env_int("X_KNOB", default=4) == 4

    def test_parses_with_whitespace(self, monkeypatch):
        monkeypatch.setenv("X_KNOB", " 12 ")
        assert env_int("X_KNOB") == 12

    @pytest.mark.parametrize("bad", ["0", "-3"])
    def test_below_minimum_rejected(self, monkeypatch, bad):
        monkeypatch.setenv("X_KNOB", bad)
        with pytest.raises(EnvKnobError, match="X_KNOB"):
            env_int("X_KNOB", minimum=1)

    def test_custom_minimum(self, monkeypatch):
        monkeypatch.setenv("X_KNOB", "0")
        assert env_int("X_KNOB", minimum=0) == 0

    @pytest.mark.parametrize("bad", ["two", "1.5", "0x10", "1e3"])
    def test_non_integer_rejected(self, monkeypatch, bad):
        monkeypatch.setenv("X_KNOB", bad)
        with pytest.raises(EnvKnobError, match="X_KNOB"):
            env_int("X_KNOB")

    def test_error_names_value(self, monkeypatch):
        monkeypatch.setenv("X_KNOB", "banana")
        with pytest.raises(EnvKnobError, match="banana"):
            env_int("X_KNOB")

    def test_is_value_error(self, monkeypatch):
        monkeypatch.setenv("X_KNOB", "banana")
        with pytest.raises(ValueError):
            env_int("X_KNOB")


class TestEnvFlag:
    def test_unset_returns_default(self, monkeypatch):
        monkeypatch.delenv("X_FLAG", raising=False)
        assert env_flag("X_FLAG") is False
        assert env_flag("X_FLAG", default=True) is True

    @pytest.mark.parametrize("raw", ["1", "true", "YES", "On"])
    def test_truthy_spellings(self, monkeypatch, raw):
        monkeypatch.setenv("X_FLAG", raw)
        assert env_flag("X_FLAG") is True

    @pytest.mark.parametrize("raw", ["0", "false", "NO", "Off"])
    def test_falsy_spellings(self, monkeypatch, raw):
        monkeypatch.setenv("X_FLAG", raw)
        assert env_flag("X_FLAG", default=True) is False

    @pytest.mark.parametrize("raw", ["maybe", "2", "yess"])
    def test_garbage_rejected(self, monkeypatch, raw):
        monkeypatch.setenv("X_FLAG", raw)
        with pytest.raises(EnvKnobError, match="X_FLAG"):
            env_flag("X_FLAG")


class TestEnvFloat:
    def test_unset_returns_default(self, monkeypatch):
        monkeypatch.delenv("X_FLOAT", raising=False)
        assert env_float("X_FLOAT") is None
        assert env_float("X_FLOAT", default=1.5) == 1.5

    def test_empty_returns_default(self, monkeypatch):
        monkeypatch.setenv("X_FLOAT", "  ")
        assert env_float("X_FLOAT", default=2.0) == 2.0

    @pytest.mark.parametrize("raw,value",
                             [(" 0.25 ", 0.25), ("3", 3.0), ("1e2", 100.0)])
    def test_parses_numeric_spellings(self, monkeypatch, raw, value):
        monkeypatch.setenv("X_FLOAT", raw)
        assert env_float("X_FLOAT") == value

    @pytest.mark.parametrize("bad", ["soon", "1.2.3", ""])
    def test_non_number_rejected(self, monkeypatch, bad):
        monkeypatch.setenv("X_FLOAT", bad or "x")
        with pytest.raises(EnvKnobError, match="X_FLOAT"):
            env_float("X_FLOAT")

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_rejected(self, monkeypatch, bad):
        # float() happily parses these; a nan timeout would poison
        # every comparison downstream
        monkeypatch.setenv("X_FLOAT", bad)
        with pytest.raises(EnvKnobError, match="finite"):
            env_float("X_FLOAT")

    def test_inclusive_minimum(self, monkeypatch):
        monkeypatch.setenv("X_FLOAT", "0")
        assert env_float("X_FLOAT", minimum=0.0) == 0.0
        with pytest.raises(EnvKnobError, match=">= 0"):
            monkeypatch.setenv("X_FLOAT", "-0.1")
            env_float("X_FLOAT", minimum=0.0)

    def test_exclusive_minimum(self, monkeypatch):
        monkeypatch.setenv("X_FLOAT", "0")
        with pytest.raises(EnvKnobError, match="> 0"):
            env_float("X_FLOAT", minimum=0.0, exclusive=True)
        monkeypatch.setenv("X_FLOAT", "0.001")
        assert env_float("X_FLOAT", minimum=0.0,
                         exclusive=True) == 0.001


class TestEnvChoice:
    def test_unset_returns_default(self, monkeypatch):
        monkeypatch.delenv("X_CHOICE", raising=False)
        assert env_choice("X_CHOICE", ("a", "b"), "a") == "a"

    def test_case_insensitive(self, monkeypatch):
        monkeypatch.setenv("X_CHOICE", " B ")
        assert env_choice("X_CHOICE", ("a", "b"), "a") == "b"

    def test_outside_choices_rejected(self, monkeypatch):
        monkeypatch.setenv("X_CHOICE", "c")
        with pytest.raises(EnvKnobError, match="one of a/b"):
            env_choice("X_CHOICE", ("a", "b"), "a")


class TestEngineKnobs:
    """The historical failure modes stay fixed (see repro.exec.env)."""

    def test_workers_honoured(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert default_workers() == 3

    def test_workers_default_positive(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert default_workers() >= 1

    def test_workers_zero_rejected_not_clamped(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "0")
        with pytest.raises(EnvKnobError, match="REPRO_WORKERS"):
            default_workers()

    @pytest.mark.parametrize("bad", ["-2", "many", "3.5"])
    def test_workers_nonsense_rejected(self, monkeypatch, bad):
        monkeypatch.setenv("REPRO_WORKERS", bad)
        with pytest.raises(EnvKnobError):
            default_workers()

    def test_workers_one_is_honoured_not_rejected(self, monkeypatch):
        # REPRO_WORKERS=1 is how every point is kept inline
        monkeypatch.setenv("REPRO_WORKERS", "1")
        assert default_workers() == 1


class TestKnobRegistry:
    @pytest.fixture(autouse=True)
    def clean_env(self, monkeypatch):
        # judge every knob alone
        for name in KNOBS:
            monkeypatch.delenv(name, raising=False)

    @staticmethod
    def mentioned():
        package = pathlib.Path(repro.__file__).parent
        names = set()
        for path in package.rglob("*.py"):
            names |= set(re.findall(r'"(REPRO_[A-Z0-9_]+)"',
                                    path.read_text(encoding="utf-8")))
        return names

    def test_every_source_literal_is_registered(self):
        # a knob added without a KNOBS entry (and so without the strict
        # parsing checks below) fails here before it can rot
        assert self.mentioned() <= set(KNOBS)

    def test_every_registered_knob_is_read(self):
        assert set(KNOBS) <= self.mentioned()

    @pytest.mark.parametrize("name", sorted(KNOBS))
    def test_unset_yields_the_default_silently(self, name, caplog):
        reader, default = KNOBS[name]
        assert reader() == default
        assert caplog.records == []

    @pytest.mark.parametrize("name", sorted(KNOBS))
    def test_blank_counts_as_unset(self, monkeypatch, name):
        reader, default = KNOBS[name]
        monkeypatch.setenv(name, "   ")
        assert reader() == default

    @pytest.mark.parametrize("name", SHAPED)
    def test_garbage_rejected_naming_the_variable(self, monkeypatch,
                                                  name):
        monkeypatch.setenv(name, "banana")
        with pytest.raises(EnvKnobError, match=name):
            KNOBS[name][0]()
