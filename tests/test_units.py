import math
import re

import pytest

from wastefactor.units import (
    db_to_linear,
    dbm_to_watts,
    linear_to_db,
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

    def test_round_trip(self):
        for watts in (1e-15, 2.5e-3, 1.0, 120.0, 3.2e4):
            assert dbm_to_watts(10 * math.log10(watts) + 30) == pytest.approx(watts, rel=1e-12)


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

