import dataclasses
import re

import pytest

from wastefactor.units import (
    db_to_linear,
    dbm_to_watts,
    linear_to_db,
    record,
    watts_to_dbm,
)


class TestDbConversions:
    def test_known_points(self):
        assert db_to_linear(0.0) == 1.0
        assert db_to_linear(10.0) == pytest.approx(10.0)
        assert db_to_linear(-30.0) == pytest.approx(1e-3)
        assert linear_to_db(100.0) == pytest.approx(20.0)

    def test_round_trip(self):
        for value in (1e-9, 0.25, 1.0, 3.5, 1e8):
            assert db_to_linear(linear_to_db(value)) == pytest.approx(value, rel=1e-12)
        for db in (-120.0, -3.01, 0.0, 17.0, 96.0):
            assert linear_to_db(db_to_linear(db)) == pytest.approx(db, abs=1e-12)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError, match="> 0"):
            linear_to_db(0.0)
        with pytest.raises(ValueError, match="> 0"):
            linear_to_db(-4.0)


class TestPowerConversions:
    def test_dbm_anchors(self):
        assert dbm_to_watts(30.0) == pytest.approx(1.0)
        assert dbm_to_watts(0.0) == pytest.approx(1e-3)
        assert watts_to_dbm(10.0) == pytest.approx(40.0)

    def test_round_trip(self):
        for watts in (1e-15, 2.5e-3, 1.0, 120.0, 3.2e4):
            assert dbm_to_watts(watts_to_dbm(watts)) == pytest.approx(watts, rel=1e-12)

    def test_zero_power_rejected(self):
        with pytest.raises(ValueError):
            watts_to_dbm(0.0)
        with pytest.raises(ValueError):
            watts_to_dbm(-1.0)


class TestOverflow:
    @pytest.mark.parametrize(
        "convert, value, unit",
        [
            (db_to_linear, 1e308, "dB"),
            (db_to_linear, 3090.0, "dB"),
            (dbm_to_watts, 4000.0, "dBm"),
        ],
    )
    def test_overflow_is_a_value_error_naming_the_value(self, convert, value, unit):
        with pytest.raises(ValueError, match=re.escape(f"{value} {unit} is too large")):
            convert(value)

    def test_edges_still_convert(self):
        assert db_to_linear(3080.0) == 1e308
        assert dbm_to_watts(3110.0) == 1e308
        assert db_to_linear(-1e308) == 0.0
        assert dbm_to_watts(-4000.0) == 0.0


class TestRecord:
    def test_generated_init_stores_every_field(self):
        @record
        @dataclasses.dataclass(frozen=True)
        class Pair:
            a: float
            b: str

        pair = Pair(1.0, b="x")
        assert vars(pair) == {"a": 1.0, "b": "x"}
        assert pair == Pair(1.0, "x") and dataclasses.replace(pair, a=2.0).a == 2.0
        with pytest.raises(TypeError):
            Pair(1.0)

    @pytest.mark.parametrize(
        "spec",
        [
            dataclasses.field(default=0.0),
            dataclasses.field(default_factory=float),
            dataclasses.field(init=False),
        ],
        ids=["default", "default-factory", "init-false"],
    )
    def test_a_field_the_init_would_skip_is_refused(self, spec):
        cls = dataclasses.make_dataclass("R", [("a", float, spec)], frozen=True)
        with pytest.raises(TypeError, match="record R: field 'a' has a default or init=False"):
            record(cls)

    def test_post_init_is_refused(self):
        @dataclasses.dataclass(frozen=True)
        class Checked:
            a: float

            def __post_init__(self):
                pass

        with pytest.raises(TypeError, match="record Checked: its __post_init__ would not run"):
            record(Checked)
