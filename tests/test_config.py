"""Tests for run-configuration parsing, validation, and round-tripping."""

import copy
import math
from importlib import resources

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from twinbeams.io import (
    PIPELINES,
    ConfigError,
    GridSpec,
    OutputConfig,
    RunConfig,
    bundled_configs,
    config_from_dict,
    config_to_dict,
    parse_config,
    parse_config_text,
    serialize_config,
)
from twinbeams.io import config
from twinbeams.pdc import BBO_SELLMEIER_EXTRAORDINARY, BBO_SELLMEIER_ORDINARY

MINIMAL = {
    "crystal": {"length_mm": 2.0, "theta0_deg": 28.81},
    "pump": {"lambda_p_nm": 397.5, "tau_p_fs": 129.0},
}


def minimal(**overrides):
    raw = copy.deepcopy(MINIMAL)
    raw.update(overrides)
    return raw


class TestDefaults:
    """A minimal config resolves every optional field."""

    def test_minimal_config(self):
        # null means missing for m (not nullable) and None for half_width
        for raw in (minimal(), minimal(grid={"m": None}), minimal(grid={"half_width": None})):
            cfg = config_from_dict(raw)
            assert cfg.pipeline == "numerical"
            assert cfg.pairing_tol == 1e-2
            assert cfg.fit_pairs == 15
            assert cfg.grid == GridSpec(m=128, half_width=None, width_factor=4.0)
            assert cfg.output == OutputConfig(directory=None)
            assert cfg.pump.gain == 1.0
            assert cfg.pump.z0_fraction == 0.5
            assert cfg.pump.prechirp_compensated is True
            assert cfg.crystal.sellmeier_o == BBO_SELLMEIER_ORDINARY
            assert cfg.crystal.sellmeier_e == BBO_SELLMEIER_EXTRAORDINARY

    def test_explicit_null_fit_pairs_means_no_cap(self):
        cfg = config_from_dict(minimal(fit_pairs=None))
        assert cfg.fit_pairs is None

    def test_custom_sellmeier(self):
        raw = minimal()
        raw["crystal"]["sellmeier_o"] = {
            "a": 2.7, "b": 0.018, "c": 0.018, "d": 0.015, "lambda_max_um": 1.2,
        }
        cfg = config_from_dict(raw)
        assert cfg.crystal.sellmeier_o.a == 2.7
        assert cfg.crystal.sellmeier_o.lambda_max_um == 1.2
        assert cfg.crystal.sellmeier_o.lambda_min_um == 0.19
        assert cfg.crystal.sellmeier_e == BBO_SELLMEIER_EXTRAORDINARY


class TestValidation:
    """Every failure names the offending field."""

    def test_missing_sections(self):
        with pytest.raises(ConfigError, match="crystal: required section is missing"):
            config_from_dict({"pump": dict(MINIMAL["pump"])})
        with pytest.raises(ConfigError, match="pump: required section is missing"):
            config_from_dict({"crystal": dict(MINIMAL["crystal"])})

    def test_missing_required_field(self):
        raw = minimal()
        del raw["pump"]["tau_p_fs"]
        with pytest.raises(ConfigError, match="pump.tau_p_fs: required field is missing"):
            config_from_dict(raw)

    def test_unknown_keys_at_every_level(self):
        with pytest.raises(ConfigError, match="config: unknown key 'pipelines'"):
            config_from_dict(minimal(pipelines="numerical"))
        raw = minimal()
        raw["pump"]["power"] = 1.0
        with pytest.raises(ConfigError, match="pump: unknown key 'power'"):
            config_from_dict(raw)
        raw = minimal(grid={"n": 128})
        with pytest.raises(ConfigError, match="grid: unknown key 'n'"):
            config_from_dict(raw)
        raw = minimal(output={"fmt": "csv"})
        with pytest.raises(ConfigError, match="output: unknown key 'fmt'"):
            config_from_dict(raw)
        raw = minimal()
        raw["crystal"]["sellmeier_o"] = {"a": 1.0, "b": 1.0, "c": 1.0, "d": 1.0, "e": 1.0}
        with pytest.raises(ConfigError, match="crystal.sellmeier_o: unknown key 'e'"):
            config_from_dict(raw)
        # Mixed key types (YAML allows integer keys) are ordered by their text.
        raw = minimal(zz=3)
        raw[1] = 2
        with pytest.raises(ConfigError, match="config: unknown key 1 "):
            config_from_dict(raw)

    def test_unknown_key_lists_known_ones(self):
        with pytest.raises(ConfigError, match="known keys: .*pairing_tol"):
            config_from_dict(minimal(tolerance=0.01))

    def test_type_errors(self):
        raw = minimal()
        raw["pump"]["gain"] = "high"
        with pytest.raises(ConfigError, match="pump.gain: expected a number, got 'high'"):
            config_from_dict(raw)
        raw = minimal()
        raw["pump"]["gain"] = True
        with pytest.raises(ConfigError, match="pump.gain: expected a number, got True"):
            config_from_dict(raw)
        raw = minimal(grid={"m": 12.5})
        with pytest.raises(ConfigError, match="grid.m: expected an integer"):
            config_from_dict(raw)
        raw = minimal()
        raw["pump"]["prechirp_compensated"] = "yes"
        with pytest.raises(ConfigError, match="pump.prechirp_compensated: expected true/false"):
            config_from_dict(raw)
        raw = minimal(output={"directory": 3})
        with pytest.raises(ConfigError, match="output.directory: expected a string"):
            config_from_dict(raw)
        with pytest.raises(ConfigError, match="config.pairing_tol: integer too large") as info:
            config_from_dict(minimal(pairing_tol=10**400))
        assert "0000" not in str(info.value)

    def test_section_must_be_mapping(self):
        with pytest.raises(ConfigError, match="pump: expected a mapping, got str"):
            config_from_dict(minimal(pump="strong"))

    def test_domain_errors_name_the_field(self):
        raw = minimal()
        raw["crystal"]["theta0_deg"] = 120.0
        with pytest.raises(ConfigError, match="crystal: theta0_deg must lie strictly between 0 and 90"):
            config_from_dict(raw)
        with pytest.raises(ConfigError, match="config: pipeline must be one of"):
            config_from_dict(minimal(pipeline="bogus"))
        with pytest.raises(ConfigError, match="config: pairing_tol must lie strictly between 0 and 1"):
            config_from_dict(minimal(pairing_tol=2.0))
        with pytest.raises(ConfigError, match="config: fit_pairs must be at least 3"):
            config_from_dict(minimal(fit_pairs=1))
        with pytest.raises(ConfigError, match="config: unknown key 'mehler_terms'"):
            config_from_dict(minimal(mehler_terms=80))
        with pytest.raises(ConfigError, match="grid: m must be at least 1"):
            config_from_dict(minimal(grid={"m": 0}))
        with pytest.raises(ConfigError, match="grid: width_factor must be positive"):
            config_from_dict(minimal(grid={"width_factor": -1.0}))

    @pytest.mark.parametrize("bad", ["8", 2.5, True, 8.0])
    def test_grid_spec_non_integer_m_raises(self, bad):
        """A directly built GridSpec checks m's type before comparing it: a
        string gave a bare TypeError, and 2.5 or True was accepted."""
        with pytest.raises(ValueError) as info:
            GridSpec(m=bad)
        assert str(info.value) == f"m must be an integer, got {bad!r}"

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("crystal", "length_mm", ".inf"),
            ("pump", "lambda_p_nm", ".nan"),
            ("pump", "lambda_p_nm", ".inf"),
            ("pump", "tau_p_fs", ".inf"),
            ("pump", "gain", ".nan"),
            ("pump", "gain", ".inf"),
            ("grid", "half_width", ".inf"),
            ("grid", "width_factor", ".inf"),
            ("crystal.sellmeier_o", "a", ".nan"),
            ("crystal.sellmeier_e", "lambda_max_um", ".inf"),
        ],
    )
    def test_non_finite_values_name_the_field(self, section, key, value):
        text = (
            "crystal:\n  length_mm: 2.0\n  theta0_deg: 28.81\n"
            "  sellmeier_o: {a: 2.7405, b: 0.0184, c: 0.0179, d: 0.0155}\n"
            "  sellmeier_e: {a: 2.3730, b: 0.0128, c: 0.0156, d: 0.0044}\n"
            "pump:\n  lambda_p_nm: 397.5\n  tau_p_fs: 129.0\n  gain: 10.0\n"
            "grid:\n  m: 16\n"
        )
        raw = yaml.safe_load(text)
        node = raw
        for part in section.split("."):
            node = node[part]
        node[key] = yaml.safe_load(value)
        shown = "nan" if value == ".nan" else "inf"
        with pytest.raises(ConfigError, match=rf"^{section}: {key} must be .*finite, got {shown}$"):
            parse_config_text(yaml.safe_dump(raw))

    def test_top_level_must_be_mapping(self):
        with pytest.raises(ConfigError, match="top level must be a mapping"):
            config_from_dict([1, 2])
        with pytest.raises(ConfigError, match="top level must be a mapping"):
            parse_config_text("- a\n- b\n", name="list.yaml")


class TestYamlParsing:
    """Text and file entry points."""

    def test_syntax_error_reports_line_and_column(self):
        text = "crystal:\n  length_mm: 2.0\n  theta0_deg 28.81: oops:\n"
        with pytest.raises(ConfigError, match=r"broken\.yaml: line 3"):
            parse_config_text(text, name="broken.yaml")

    def test_integer_literal_past_digit_limit(self):
        """PyYAML's int constructor refuses > 4300 digits with a plain ValueError."""
        text = "pairing_tol: 1" + "0" * 5000 + "\n"
        with pytest.raises(ConfigError, match=r"long\.yaml: unreadable value: .*4300 digits") as info:
            parse_config_text(text, name="long.yaml")
        assert "0000" not in str(info.value)
        assert "set_int_max_str_digits" not in str(info.value)

    @pytest.mark.parametrize(
        "text, value", [("1e-2", 1e-2), ("1E3", 1e3), ("1.0e6", 1e6), ("-2.5e-3", -2.5e-3)]
    )
    def test_exponent_floats_are_numbers(self, text, value):
        """PyYAML's own resolver needs a dot and a signed exponent."""
        got = yaml.load(f"x: {text}\n", Loader=config._ConfigLoader)["x"]
        assert type(got) is float and got == value

    def test_exponent_floats_in_a_config(self):
        cfg = parse_config_text(
            "crystal:\n  length_mm: 2.0\n  theta0_deg: 28.81\n"
            "pump:\n  lambda_p_nm: 397.5\n  tau_p_fs: 1.0e6\n  gain: 1E3\n"
            "pairing_tol: 1e-2\n"
            "output:\n  directory: '1e5'\n"
        )
        assert (cfg.pump.tau_p_fs, cfg.pump.gain, cfg.pairing_tol) == (1e6, 1e3, 1e-2)
        assert cfg.output.directory == "1e5"
        assert parse_config_text(serialize_config(cfg)) == cfg

    def test_bundled_texts_read_as_before(self):
        root = resources.files("twinbeams") / "configs"
        for name in bundled_configs():
            text = (root / f"{name}.yaml").read_text(encoding="utf-8")
            assert yaml.load(text, Loader=config._ConfigLoader) == yaml.safe_load(text)

    def test_empty_text_is_missing_sections(self):
        with pytest.raises(ConfigError, match="crystal: required section is missing"):
            parse_config_text("")

    def test_parse_file(self, tmp_path):
        path = tmp_path / "run.yaml"
        path.write_text(serialize_config(config_from_dict(minimal())))
        cfg = parse_config(path)
        assert cfg.crystal.theta0_deg == 28.81

    def test_missing_file_lists_bundled_names(self):
        with pytest.raises(ConfigError, match="config not found: nope.*bbo_nondegenerate"):
            parse_config("nope")


class TestBundledConfigs:
    """Configs shipped inside the package."""

    def test_names(self):
        names = bundled_configs()
        assert "bbo_nondegenerate" in names
        assert "bbo_near_degenerate" in names
        assert names == tuple(sorted(names))

    def test_bundled_nondegenerate(self):
        cfg = parse_config("bbo_nondegenerate")
        assert cfg.crystal.theta0_deg == 28.81
        assert cfg.pump.tau_p_fs == 129.0
        assert cfg.pipeline == "compare"

    def test_bundled_near_degenerate(self):
        cfg = parse_config("bbo_near_degenerate")
        assert cfg.crystal.theta0_deg == 29.18
        assert cfg.pipeline == "near_degenerate"

    def test_all_bundled_configs_parse(self):
        for name in bundled_configs():
            cfg = parse_config(name)
            assert isinstance(cfg, RunConfig)


class TestRoundTrip:
    """parse -> serialize -> parse is the identity."""

    def test_minimal(self):
        cfg = config_from_dict(minimal())
        again = parse_config_text(serialize_config(cfg))
        assert config_to_dict(again) == config_to_dict(cfg)
        assert again == cfg

    def test_fully_explicit(self):
        raw = minimal(
            pipeline="compare",
            pairing_tol=0.05,
            fit_pairs=10,
            grid={"m": 64, "half_width": 0.5, "width_factor": 3.0},
            output={"directory": "out"},
        )
        raw["pump"].update(gain=10.0, z0_fraction=0.25, prechirp_compensated=False)
        cfg = config_from_dict(raw)
        again = parse_config_text(serialize_config(cfg))
        assert again == cfg

    def test_null_fit_pairs_survives(self):
        cfg = config_from_dict(minimal(fit_pairs=None))
        again = parse_config_text(serialize_config(cfg))
        assert again.fit_pairs is None

    def test_bundled_round_trip(self):
        for name in bundled_configs():
            cfg = parse_config(name)
            assert parse_config_text(serialize_config(cfg)) == cfg

    def test_to_dict_is_fully_resolved(self):
        d = config_to_dict(config_from_dict(minimal()))
        assert d["pipeline"] == "numerical"
        assert d["fit_pairs"] == 15
        assert d["crystal"]["sellmeier_o"]["a"] == BBO_SELLMEIER_ORDINARY.a
        assert d["output"] == {"directory": None}

    def test_to_dict_key_order(self):
        """The report.json echo depends on this exact nested key order."""
        d = config_to_dict(config_from_dict(minimal()))
        assert list(d) == [
            "crystal", "pump", "grid", "pipeline", "pairing_tol", "fit_pairs", "output",
        ]
        assert list(d["crystal"]) == ["length_mm", "theta0_deg", "sellmeier_o", "sellmeier_e"]
        for key in ("sellmeier_o", "sellmeier_e"):
            assert list(d["crystal"][key]) == [
                "a", "b", "c", "d", "lambda_min_um", "lambda_max_um",
            ]
        assert list(d["pump"]) == [
            "lambda_p_nm", "tau_p_fs", "gain", "z0_fraction", "prechirp_compensated",
        ]
        assert list(d["grid"]) == ["m", "half_width", "width_factor"]
        assert list(d["output"]) == ["directory"]


def _number(lo, hi):
    """A float in [lo, hi], sometimes written as an integer."""
    floats = st.floats(lo, hi)
    if math.ceil(lo) > math.floor(hi):
        return floats
    return st.one_of(floats, st.integers(math.ceil(lo), math.floor(hi)))


@st.composite
def raw_configs(draw):
    """Valid raw config trees whose optional keys are omitted, null or given.

    A value is a strategy, or a callable that builds a nested section.
    """

    def make(value):
        return value() if callable(value) else draw(value)

    def section(required, optional=None):
        node = {key: make(value) for key, value in required.items()}
        for key, value in (optional or {}).items():
            choice = draw(st.sampled_from(("omit", "null", "value")))
            if choice != "omit":
                node[key] = None if choice == "null" else make(value)
        return node

    def sellmeier():
        return section(
            {key: _number(-10.0, 10.0) for key in "abcd"},
            {"lambda_min_um": _number(0.1, 0.5), "lambda_max_um": _number(1.0, 5.0)},
        )

    positive = st.floats(1e-6, 1e6)
    return section(
        {
            "crystal": lambda: section(
                {"length_mm": _number(0.01, 100.0), "theta0_deg": st.floats(0.5, 89.5)},
                {"sellmeier_o": sellmeier, "sellmeier_e": sellmeier},
            ),
            "pump": lambda: section(
                {"lambda_p_nm": _number(200.0, 2000.0), "tau_p_fs": positive},
                {
                    "gain": _number(0.0, 1e4),
                    "z0_fraction": st.floats(0.0, 1.0),
                    "prechirp_compensated": st.booleans(),
                },
            ),
        },
        {
            "grid": lambda: section(
                {},
                {
                    "m": st.integers(1, 4096),
                    "half_width": positive,
                    "width_factor": positive,
                },
            ),
            "pipeline": st.sampled_from(PIPELINES),
            "pairing_tol": st.floats(1e-9, 0.999),
            "fit_pairs": st.integers(3, 200),
            "output": lambda: section(
                {}, {"directory": st.text(min_size=1)}
            ),
        },
    )


def _holds_given_values(resolved: dict, raw: dict) -> bool:
    """Every non-null value of ``raw`` appears unchanged in ``resolved``."""
    for key, value in raw.items():
        if isinstance(value, dict):
            if not _holds_given_values(resolved[key], value):
                return False
        elif value is not None and resolved[key] != value:
            return False
    return True


@settings(max_examples=100, deadline=None, derandomize=True)
@given(raw_configs())
def test_config_round_trips(raw):
    """config_from_dict and parse_config_text invert config_to_dict and serialize_config."""
    cfg = config_from_dict(raw)
    assert _holds_given_values(config_to_dict(cfg), raw)
    assert config_from_dict(config_to_dict(cfg)) == cfg
    assert parse_config_text(serialize_config(cfg)) == cfg
