"""INI serialisation of design points and the campaign tool."""

import configparser
import io
import json
import logging
import pathlib
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.config_io import (_READERS, _sections, IniError,
                             design_point_from_ini, design_point_to_ini,
                             load_design_point, save_design_point)
from repro.sim.runner import DESIGNS, DesignPoint
from repro.tools import campaign

#: design -> non-default values of the DesignPoint knobs it takes
KNOBBED = {
    "mopac-c": [dict(p=1 / 8), dict(rowpress=True)],
    "mopac-d": [dict(p=0.25, srq_size=32, drain_on_ref=3),
                dict(chips=4, sampler="para", abo_level=2, rowpress=True),
                dict(drain_on_ref=0, abo_level=4)],
    "mopac-d-nup": [dict(p=1 / 4, srq_size=8, drain_on_ref=1, chips=2,
                         sampler="para", abo_level=4)],
}


def full_parse(text):
    """The point ``ConfigParser`` gives, the reference reader: it reads
    the whole text in its default dialect, and each resolved
    ``[design]`` option is converted as :data:`_READERS` converts it
    (``rowpress`` by ``getboolean``)."""
    parser = configparser.ConfigParser()
    parser.read_string(text)
    if "design" not in parser:
        raise ValueError("missing [design] section")
    design = parser["design"]
    unknown = set(design) - set(_READERS)
    if unknown:
        raise ValueError(f"unknown [design] option(s) {sorted(unknown)}")
    return DesignPoint(**{
        key: design.getboolean(key) if key == "rowpress"
        else _READERS[key](value) for key, value in design.items()})


def config_parser_text(point):
    """What ``ConfigParser.write`` writes for the point's sections."""
    parser = configparser.ConfigParser()
    parser.read_dict(_sections(point))
    out = io.StringIO()
    parser.write(out)
    return out.getvalue()


def sections(text):
    """``{header: section text}`` of an INI written by this module."""
    out = {}
    for chunk in text.split("\n["):
        name, _, body = chunk.lstrip("[").partition("]")
        out[name] = f"[{name}]{body}".rstrip("\n") + "\n"
    return out


def parse_both(text, parses=(design_point_from_ini, full_parse)):
    """``(new parse, full parse)``, or the exception type each raised."""
    results = []
    for parse in parses:
        try:
            results.append(parse(text))
        except Exception as error:  # noqa: BLE001 - compared by type
            results.append(type(error))
    return results


def refused_at(text, line):
    """``pytest.raises`` for the reader refusing the last ``line`` of
    ``text``, named by its number."""
    lines = text.split("\n")
    number = len(lines) - lines[::-1].index(line)
    return pytest.raises(ValueError,
                         match=re.escape(f"line {number} {line!r}: "))


class TestIniRoundtrip:
    def test_default_point(self):
        point = DesignPoint(workload="mcf", design="mopac-d", trh=500)
        assert design_point_from_ini(design_point_to_ini(point)) == point

    def test_fancy_point(self):
        point = DesignPoint(
            workload="hammer", design="mopac-d", trh=250,
            instructions=12_345, seed=99, page_policy="ton100", chips=4,
            srq_size=32, drain_on_ref=3, p=1 / 4, rows_per_bank=1024,
            refresh_scale=1 / 128, rowpress=True, sampler="para",
            abo_level=2)
        assert design_point_from_ini(design_point_to_ini(point)) == point

    def test_auto_fields(self):
        point = DesignPoint(workload="mcf", design="mopac-d")
        text = design_point_to_ini(point)
        assert "drain_on_ref = auto" in text
        assert "p = auto" in text

    def test_ini_contains_resolved_timing(self):
        text = design_point_to_ini(
            DesignPoint(workload="mcf", design="prac"))
        assert "[timing]" in text
        assert "trp = 14" in text  # base timing; PRAC applies per policy

    def test_file_roundtrip(self, tmp_path):
        point = DesignPoint(workload="add", design="prac", trh=1000)
        path = tmp_path / "point.ini"
        save_design_point(point, str(path))
        assert load_design_point(str(path)) == point

    def test_load_names_the_file(self, tmp_path):
        path = tmp_path / "point.ini"
        save_design_point(DesignPoint(workload="add", design="prac"),
                          str(path))
        path.write_text(path.read_text().replace("seed = ", "seed: "))
        with pytest.raises(IniError,
                           match=re.escape(f"{path}: line 6 'seed: ")):
            load_design_point(str(path))

    def test_missing_section_rejected(self):
        with pytest.raises(ValueError):
            design_point_from_ini("[dram]\nsubchannels = 2\n")

    def test_non_positive_instructions_rejected(self):
        text = design_point_to_ini(
            DesignPoint(workload="mcf", design="prac", instructions=1,
                        trh=1))
        for field in ("instructions", "trh"):
            bad = text.replace(f"{field} = 1\n", f"{field} = 0\n")
            assert bad != text
            with pytest.raises(ValueError,
                               match=f"{field} must be positive"):
                design_point_from_ini(bad)

    @pytest.mark.parametrize("design, knobs", [
        *((design, {}) for design in DESIGNS),
        *((design, knobs) for design, variants in KNOBBED.items()
          for knobs in variants)])
    def test_writer_writes_what_config_parser_writes(self, design, knobs):
        for trh in (1000, 500, 250):
            point = DesignPoint(workload="lbm", design=design, trh=trh,
                                **knobs)
            text = design_point_to_ini(point)
            assert text == config_parser_text(point)
            assert design_point_from_ini(text) == point


class TestDesignSectionOnly:
    """Only ``[design]`` is read; the point equals the one
    ``ConfigParser``'s parse of every section gives, and bad
    ``[design]`` input is refused."""

    POINT = DesignPoint(workload="mcf", design="mopac-d", trh=250)

    def test_every_planned_ini_matches_full_parse(self, tmp_path):
        paths = campaign.plan(tmp_path, ["mcf", "add", "mix1"], DESIGNS,
                              [1000, 500, 250], 2_000)
        assert len(paths) == 3 * len(DESIGNS) * 3
        for path in paths:
            text = path.read_text()
            point = design_point_from_ini(text)
            assert point == full_parse(text)
            assert design_point_to_ini(point) == text \
                == config_parser_text(point)

    @pytest.mark.parametrize("design, knobs", [
        (design, knobs) for design, variants in KNOBBED.items()
        for knobs in variants])
    def test_knob_values_match_full_parse(self, design, knobs):
        point = DesignPoint(workload="lbm", design=design, trh=500,
                            **knobs)
        text = design_point_to_ini(point)
        assert design_point_from_ini(text) == full_parse(text) == point

    def test_design_not_first_section(self):
        parts = sections(design_point_to_ini(self.POINT))
        text = "".join(parts[name] for name in
                       ("dram", "timing", "design", "system"))
        assert text.index("[design]") > 0
        assert design_point_from_ini(text) == full_parse(text) \
            == self.POINT

    def test_header_is_a_line_not_a_substring(self):
        # ahead of the real header: a value and a comment that contain
        # "[design]" (the derived section's lines are not read), then
        # an indented continuation line, which the reader refuses
        parts = sections(design_point_to_ini(self.POINT))
        parts["dram"] += ("note = copied from [design]\n"
                          "# [design] is the only section read back\n"
                          "comment = derived\n")
        order = ("dram", "design", "timing", "system")
        text = "".join(parts[name] for name in order)
        assert text.count("[design]") == 3
        assert design_point_from_ini(text) == full_parse(text) \
            == self.POINT
        parts["dram"] += "  [design] carries the point\n"
        text = "".join(parts[name] for name in order)
        assert full_parse(text) == self.POINT
        with refused_at(text, "  [design] carries the point"):
            design_point_from_ini(text)

    def test_default_section_is_refused(self):
        text = design_point_to_ini(self.POINT).replace(
            "seed = 24301\n", "") + "[DEFAULT]\nseed = 7\n"
        assert full_parse(text).seed == 7
        with refused_at(text, "[DEFAULT]"):
            design_point_from_ini(text)

    def test_derived_sections_are_not_read(self):
        # nothing reads [timing] back, so a broken one does not fail
        # the parse of the point it was derived from
        text = design_point_to_ini(self.POINT).replace(
            "[timing]\n", "[timing]\ntrcd = 1\ntrcd = 2\n")
        with pytest.raises(configparser.DuplicateOptionError):
            full_parse(text)
        assert design_point_from_ini(text) == self.POINT

    def test_missing_design_section(self):
        parts = sections(design_point_to_ini(self.POINT))
        del parts["design"]
        text = "".join(parts.values())
        assert parse_both(text) == [ValueError, ValueError]
        with pytest.raises(ValueError, match=r"missing \[design\]"):
            design_point_from_ini(text)

    def test_duplicate_option_in_design(self):
        text = design_point_to_ini(self.POINT).replace(
            "trh = 250\n", "trh = 250\ntrh = 500\n")
        with pytest.raises(configparser.DuplicateOptionError):
            full_parse(text)
        with refused_at(text, "trh = 500"):
            design_point_from_ini(text)

    @pytest.mark.parametrize("after", ["design", "dram", "system"])
    def test_second_design_header(self, after):
        parts = sections(design_point_to_ini(self.POINT))
        second = parts["design"].replace("trh = 250", "trh = 500")
        text = "".join(part + (second if name == after else "")
                       for name, part in parts.items())
        assert text.count("[design]") == 2
        with pytest.raises(configparser.DuplicateSectionError):
            full_parse(text)
        with refused_at(text, "[design]"):
            design_point_from_ini(text)

    def test_non_integer_trh(self):
        text = design_point_to_ini(self.POINT).replace(
            "trh = 250\n", "trh = 2.5e2\n")
        assert parse_both(text) == [ValueError, ValueError]

    def test_unknown_design(self):
        text = design_point_to_ini(self.POINT).replace(
            "design = mopac-d\n", "design = mopac-z\n")
        assert parse_both(text) == [ValueError, ValueError]
        with pytest.raises(ValueError, match="unknown design 'mopac-z'"):
            design_point_from_ini(text)

    @pytest.mark.parametrize("old, new, error", [
        ("abo_level = 1\n", "abo_level = 3\n", "abo_level must be 1, 2 or 4"),
        ("srq_size = 16\n", "srq_size = 0\n", "srq_size must be at least"),
        ("sampler = mint\n", "sampler = magic\n", "unknown sampler"),
    ], ids=["abo_level", "srq_size", "sampler"])
    def test_knob_value_the_policy_refuses(self, old, new, error):
        text = design_point_to_ini(self.POINT).replace(old, new)
        with pytest.raises(ValueError, match=f"design 'mopac-d' refuses "
                                             f".*: {error}"):
            design_point_from_ini(text)

    def test_missing_workload(self):
        text = design_point_to_ini(self.POINT).replace(
            "workload = mcf\n", "")
        with pytest.raises(ValueError,
                           match="missing \\[design\\] option 'workload'"):
            design_point_from_ini(text)


WRITTEN = design_point_to_ini(TestDesignSectionOnly.POINT)


def edited(old, new):
    """:data:`WRITTEN` with its first ``old`` replaced by ``new``."""
    return WRITTEN.replace(old, new, 1)

#: text outside the written dialect -> the line the reader refuses
REFUSED = {
    "text ahead of the first header": ("stray = line\n" + WRITTEN,
                                       "stray = line"),
    "comment ahead of the first header": ("# note\n" + WRITTEN, "# note"),
    "[DEFAULT]": (WRITTEN + "[DEFAULT]\nseed = 7\n", "[DEFAULT]"),
    "another section": (WRITTEN + "[extra]\nx = 1\n", "[extra]"),
    "upper-case header": (edited("[design]", "[Design]"), "[Design]"),
    "header with trailing text": (edited("[dram]", "[dram] ; derived"),
                                  "[dram] ; derived"),
    "second derived section": (WRITTEN + "[dram]\n", "[dram]"),
    "second [design]": (WRITTEN + "[design]\nworkload = mcf\n",
                        "[design]"),
    "comment in [design]": (edited("seed", "# the seed\nseed"),
                            "# the seed"),
    "':' delimiter": (edited("seed = ", "seed: "), "seed: 24301"),
    "unspaced '='": (edited("seed = ", "seed="), "seed=24301"),
    "indented option": (edited("seed", "  seed"), "  seed = 24301"),
    "continuation line": (edited("seed = 24301", "seed = 24301\n\t7"),
                          "\t7"),
    "indented header": ("[dram]\n  [design]\nworkload = mcf\n"
                        "design = prac\n", "  [design]"),
    "indented line in a derived section": (
        edited("[timing]", "[timing]\n  continued"), "  continued"),
    "upper-case name": (edited("seed", "SEED"), "SEED = 24301"),
    "padded name": (edited("seed", "seed "), "seed  = 24301"),
    "padded value": (edited("24301", " 24301"), "seed =  24301"),
    "trailing blank": (edited("24301", "24301 "), "seed = 24301 "),
    "duplicate option": (edited("trh = 250", "trh = 250\ntrh = 500"),
                         "trh = 500"),
    "unknown option": (edited("instructions", "instrutions"),
                       "instrutions = 150000"),
    "getboolean spelling": (edited("rowpress = False", "rowpress = no"),
                            "rowpress = no"),
    "interpolation": (edited("seed = 24301", "seed = %(trh)s"),
                      "seed = %(trh)s"),
    "escaped '%'": (edited("workload = mcf", "workload = mcf%%"),
                    "workload = mcf%%"),
    "non-integer": (edited("trh = 250", "trh = 2.5e2"), "trh = 2.5e2"),
}


class TestRefused:
    """Every construct outside the dialect ``design_point_to_ini``
    writes raises ``ValueError`` naming its line."""

    @pytest.mark.parametrize("text, line", REFUSED.values(),
                             ids=REFUSED.keys())
    def test_names_the_line(self, text, line):
        with refused_at(text, line):
            design_point_from_ini(text)


#: the options design_point_to_ini writes to [design]
OPTIONS = ("workload", "design", "trh", "instructions", "seed",
           "page_policy", "chips", "srq_size", "drain_on_ref", "p",
           "rows_per_bank", "refresh_scale", "rowpress", "sampler",
           "abo_level", "refresh_mode")


class TestUnknownOptions:
    """An option :func:`design_point_to_ini` does not write is refused,
    where it used to be ignored and its field left at the default."""

    POINT = DesignPoint(workload="mcf", design="prac", instructions=8_000)

    def test_the_writer_writes_exactly_the_read_options(self):
        parser = configparser.ConfigParser()
        parser.read_string(design_point_to_ini(self.POINT))
        assert tuple(parser["design"]) == OPTIONS == tuple(_READERS)

    def test_misspelled_option_is_named(self):
        text = design_point_to_ini(self.POINT).replace(
            "instructions = 8000", "instrutions = 8000")
        with pytest.raises(ValueError, match="'instrutions'"):
            design_point_from_ini(text)


#: option values: good and bad ones for some field, and ``%`` ones
#: that resolve, refer to nothing, are escaped or are malformed
VALUES = st.sampled_from([
    "mcf", "add", "prac", "mopac-c", "mopac-d", "mopac-z", "open", "250",
    "500", "2.5e2", "1_000", "0", "-3", "0.25", "auto", "yes", "off",
    "maybe", "", "a b", "%(trh)s", "%(TRH)s", "1%(seed)s", "%(design)s",
    "%(nope)s", "%%", "5%%", "%%(trh)s", "%", "%x", "%(trh",
    "%(instructions)s"])


def option_lines(names, values=VALUES):
    """``name = value`` lines for each name, in mixed case, padded,
    with either delimiter."""
    spelled = names.flatmap(lambda name: st.sampled_from(
        [name, name.upper(), name.title(), f"{name}  ", f"  {name}"]))
    delimiters = st.sampled_from(["=", ":", " = ", " : ", "  =  "])
    return st.builds("{}{}{}".format, spelled, delimiters, values)


#: lines other than options: blanks, comments, continuations, lines
#: with no delimiter or an empty option name
OTHER_LINES = st.sampled_from([
    "", "   ", "# comment", "; comment", "   # indented comment",
    "  continued", "\tcontinued", "    %(trh)s", "trh", "just words",
    "= 5", ": 5"])

#: a few lines of any kind, mostly not options, some misspelled ones
LINES = st.lists(st.one_of(
    OTHER_LINES, OTHER_LINES,
    option_lines(st.sampled_from(OPTIONS + ("instrutions",)))),
    max_size=3)


#: values in the writer's format for each [design] option; a few give
#: points ``DesignPoint`` refuses (a knob the drawn design does not take)
WRITTEN_VALUES = {
    "workload": ("mcf", "add", "lbm"),
    "design": ("mopac-d", "mopac-d", "mopac-d", "mopac-c", "prac"),
    "trh": ("250", "500", "1000"),
    "instructions": ("6000", "150000"),
    "seed": ("1", "24301"),
    "page_policy": ("open", "close", "ton100"),
    "chips": ("1", "4"),
    "srq_size": ("16", "8"),
    "drain_on_ref": ("auto", "auto", "0", "3"),
    "p": ("auto", "auto", "0.25", "0.03125"),
    "rows_per_bank": ("4096", "512"),
    "refresh_scale": ("0.015625", "0.00390625"),
    "rowpress": ("False", "False", "True"),
    "sampler": ("mint", "mint", "para"),
    "abo_level": ("1", "1", "2", "4"),
    "refresh_mode": ("all-bank", "same-bank"),
}


@st.composite
def foreign_construct(draw, parts, design):
    """Add one construct outside the writer's dialect that
    ``ConfigParser`` may still read: a respelled option, other lines,
    a ``[DEFAULT]`` section, a second ``[design]`` header or lines
    ahead of the first header. Returns the preamble."""
    how = draw(st.sampled_from(
        ["respell", "lines", "default", "design2", "preamble"]))
    if how == "respell" and len(design) > 1:
        at = draw(st.integers(1, len(design) - 1))
        name, _, value = design[at].partition(" = ")
        design[at] = draw(option_lines(st.just(name), st.just(value)))
    elif how == "lines":
        for line in draw(LINES):
            design.insert(draw(st.integers(1, len(design))), line)
    elif how == "default":
        parts["DEFAULT"] = "\n".join(["[DEFAULT]", *draw(LINES)]) + "\n"
    elif how == "design2":
        parts["design2"] = "\n".join(["[design]", *draw(LINES)]) + "\n"
    elif how == "preamble":
        return draw(st.lists(st.sampled_from(
            ["", "# note", "; note", "  # indented", "stray = line"]),
            min_size=1, max_size=2))
    return []


@st.composite
def ini_texts(draw):
    """A written INI, mostly still in the writer's dialect: sections in
    any order, and [design] options dropped, reordered, rewritten with
    values the writer could write, and separated by blank lines. One
    draw in five also gains a :func:`foreign_construct`."""
    parts = sections(design_point_to_ini(
        DesignPoint(workload="mcf", design="mopac-d", trh=250)))
    design = []
    for line in parts["design"].splitlines()[1:]:
        name = line.partition(" = ")[0]
        how = draw(st.sampled_from(
            ["keep", "keep", "rewrite"] if name in OPTIONS[:2]
            else ["keep", "keep", "drop", "rewrite"]))
        if how == "keep":
            design.append(line)
        elif how == "rewrite":
            value = draw(st.sampled_from(WRITTEN_VALUES[name]))
            design.append(f"{name} = {value}")
    design = ["[design]", *draw(st.permutations(design))]
    for _ in range(draw(st.integers(0, 2))):
        design.insert(draw(st.integers(1, len(design))), "")
    preamble = []
    if draw(st.integers(0, 4)) == 0:
        preamble = draw(foreign_construct(parts, design))
    parts["design"] = "\n".join(design) + "\n"
    order = draw(st.permutations(sorted(parts)))
    return "".join(line + "\n" for line in preamble) + \
        "".join(parts[name] for name in order)


class TestAgainstConfigParser:
    """A one-way referee: whenever the reader gives a point,
    ``ConfigParser`` reading the whole text (:func:`full_parse`) gives
    the same point; otherwise the reader raised ``ValueError``. The
    reader no longer follows ConfigParser's dialect, so where
    ConfigParser reads more (comments, ``:``, continuations,
    ``[DEFAULT]``, interpolation) the reader refuses."""

    @settings(max_examples=400, deadline=None)
    @given(ini_texts())
    @example(design_point_to_ini(TestDesignSectionOnly.POINT))
    @example(design_point_to_ini(TestDesignSectionOnly.POINT).replace(
        "seed = 24301", "seed = %(trh)s"))
    @example(design_point_to_ini(TestDesignSectionOnly.POINT).replace(
        "seed = 24301", "seed = %(seed)s"))
    @example("stray = line\n" + design_point_to_ini(
        TestDesignSectionOnly.POINT))
    def test_same_point_or_refused(self, text):
        try:
            point = design_point_from_ini(text)
        except ValueError:
            return
        assert full_parse(text) == point

    def test_most_draws_are_read(self):
        """The referee compares points only where the reader gives one,
        so at least half of the drawn texts must read back to a point."""
        read = []

        @settings(max_examples=400, deadline=None, database=None,
                  derandomize=True)
        @given(ini_texts())
        def draw(text):
            try:
                design_point_from_ini(text)
            except ValueError:
                read.append(False)
            else:
                read.append(True)

        draw()
        assert len(read) >= 400
        assert sum(read) >= len(read) / 2, f"{sum(read)} of {len(read)}"

    @pytest.mark.parametrize("depth", [9, 10, 11])
    def test_reference_chain_depth(self, depth):
        # ConfigParser resolves a chain of references up to
        # MAX_INTERPOLATION_DEPTH deep and refuses a deeper one; the
        # reader reads no reference, so it refuses the chain at its
        # first line whatever its depth
        chain = "".join(f"x{i} = %(x{i + 1})s\n" for i in range(1, depth))
        text = f"[design]\nworkload = %(x1)s\n{chain}x{depth} = mcf\n"
        parser = configparser.ConfigParser()
        parser.read_string(text)
        if depth > configparser.MAX_INTERPOLATION_DEPTH:
            with pytest.raises(configparser.InterpolationDepthError):
                parser["design"]["workload"]
        else:
            assert parser["design"]["workload"] == "mcf"
        with refused_at(text, "workload = %(x1)s"):
            design_point_from_ini(text)

    def test_blank_lines_inside_a_value(self):
        text = "[design]\nworkload = a\n\n  b\n\ndesign = prac\n"
        parser = configparser.ConfigParser()
        parser.read_string(text)
        assert dict(parser["design"]) == {"workload": "a\n\nb",
                                          "design": "prac"}
        with refused_at(text, "  b"):
            design_point_from_ini(text)


class TestCampaign:
    FAST = dict(instructions=8_000)

    def test_plan_run_stats(self, tmp_path, capsys):
        assert campaign.main([
            "plan", "--dir", str(tmp_path), "--workloads", "xalancbmk",
            "--designs", "prac", "mopac-c", "--trhs", "500",
            "--instructions", "8000"]) == 0
        inis = list(pathlib.Path(tmp_path).glob("*.ini"))
        assert len(inis) == 2

        assert campaign.main(["run", "--dir", str(tmp_path)]) == 0
        csv_path = pathlib.Path(tmp_path) / "results.csv"
        assert csv_path.exists()
        content = csv_path.read_text()
        assert "xalancbmk" in content
        assert content.count("\n") == 3  # header + 2 rows

        assert campaign.main(["stats", "--dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "prac" in out and "mopac-c" in out

    def test_plan_refuses_non_positive_instructions(self, tmp_path):
        with pytest.raises(ValueError, match="instructions must be positive"):
            campaign.plan(pathlib.Path(tmp_path), ["mcf"], ["prac"], [500], 0)
        with pytest.raises(ValueError, match="trh must be positive"):
            campaign.plan(pathlib.Path(tmp_path), ["mcf"], ["prac"], [0],
                          6000)
        assert not list(pathlib.Path(tmp_path).glob("*.ini"))

    def test_stats_without_run_fails(self, tmp_path):
        assert campaign.main(["stats", "--dir", str(tmp_path)]) == 2

    def test_run_without_plan_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            campaign.run(pathlib.Path(tmp_path))
        assert campaign.main(["run", "--dir", str(tmp_path)]) == 2

    def test_verify_checks_the_planned_points(self, tmp_path,
                                              monkeypatch):
        from repro.check import driver
        checked = []

        class Verdict:
            ok = True

            def describe(self):
                return "ok"

        def fake_verify(point):
            checked.append(point)
            return Verdict()

        monkeypatch.setattr(driver, "verify_point", fake_verify)
        campaign.plan(tmp_path, ["mcf", "add"], ["prac"], [500], 2_000)
        _, points, _ = campaign.planned_points(tmp_path)
        assert campaign.verify(tmp_path, limit=1) == 0
        assert checked == points[:1]
        with pytest.raises(FileNotFoundError):
            campaign.verify(tmp_path / "empty")


@pytest.fixture
def stderr_log(capsys):
    """``capsys``, with the ``repro`` log handler that ``campaign.main``
    attaches writing to the stderr it captures."""
    root = logging.getLogger("repro")

    def drop_handlers():
        for handler in list(root.handlers):
            if getattr(handler, "_repro_handler", False):
                root.removeHandler(handler)

    drop_handlers()
    yield capsys
    drop_handlers()
    root.setLevel(logging.NOTSET)
    root.propagate = True


class TestBadIni:
    """Each command that reads the plan logs one line naming the INI
    that does not read back, and its line, and exits 2."""

    @pytest.mark.parametrize("command", [
        ["run"], ["verify"], ["submit", "--server", "unix:/absent.sock"],
        ["fetch"]])
    def test_exits_2_naming_the_file(self, tmp_path, stderr_log, command):
        campaign.plan(tmp_path, ["add", "mcf"], ["prac"], [500], 2_000)
        bad = tmp_path / "mcf.prac.t500.ini"
        bad.write_text(bad.read_text().replace(
            "instructions = 2000", "instrutions = 2000"))
        (tmp_path / "job.json").write_text(json.dumps(
            {"id": "job-1", "server": "unix:/absent.sock"}))
        assert campaign.main([command[0], "--dir", str(tmp_path),
                              *command[1:]]) == 2
        err = stderr_log.readouterr().err
        assert err.count("\n") == 1
        assert (f"{bad}: line 5 'instrutions = 2000': unknown [design] "
                f"option 'instrutions'") in err
        assert not (tmp_path / "results.csv").exists()

    def test_plan_with_a_bad_value_writes_nothing_and_exits_2(
            self, tmp_path, stderr_log):
        """A bad value late in the grid fails before the first INI is
        written, with one log line instead of a traceback."""
        directory = tmp_path / "plan"
        assert campaign.main(["plan", "--dir", str(directory),
                              "--workloads", "mcf", "--designs", "prac",
                              "--trhs", "500", "0",
                              "--instructions", "6000"]) == 2
        err = stderr_log.readouterr().err
        assert err.count("\n") == 1
        assert "trh must be positive, got 0" in err
        assert not list(tmp_path.rglob("*.ini"))
