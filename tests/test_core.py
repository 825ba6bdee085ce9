import dataclasses
import importlib
import inspect
import math
import pickle
import pkgutil
import re

import numpy as np
import pytest

from wastefactor.core import (
    CascadeReport,
    Stage,
    StageFlow,
    cascade,
    power_flow,
    total_consumed_power,
    wasted_power,
)
from wastefactor.netsim import DropResult, DropRow, Layout, PowerControlResult
from wastefactor.parallel import Branch
from wastefactor.units import db_to_linear


def random_stages(rng, n):
    """Stages with W in [1, 100] and G log-uniform in [1e-6, 1e6]."""
    return [
        Stage(
            w=1.0 + 99.0 * rng.random(),
            g=10.0 ** rng.uniform(-6.0, 6.0),
            label=f"s{i}",
        )
        for i in range(n)
    ]


class TestStage:
    def test_valid_construction(self):
        stage = Stage(w=2.0, g=10.0, label="pa")
        assert stage.w == 2.0
        assert stage.g == 10.0
        assert stage.label == "pa"

    def test_unity_w_is_the_floor(self):
        assert Stage(w=1.0, g=5.0).w == 1.0
        with pytest.raises(ValueError, match=">= 1"):
            Stage(w=0.999999, g=5.0)

    def test_bad_gain_rejected(self):
        with pytest.raises(ValueError, match="gain"):
            Stage(w=2.0, g=0.0)
        with pytest.raises(ValueError, match="gain"):
            Stage(w=2.0, g=-3.0)
        with pytest.raises(ValueError, match="gain"):
            Stage(w=2.0, g=math.inf)

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            Stage(w=math.nan, g=1.0)

    def test_infinite_w_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            Stage(w=math.inf, g=1.0)

    def test_gain_is_checked_before_w(self):
        with pytest.raises(ValueError, match="stage gain"):
            Stage(w=0.5, g=0.0)

    def test_from_loss_db_exact_reciprocal(self):
        stage = Stage.from_loss_db(3.0, label="att")
        assert stage.w == pytest.approx(10.0 ** 0.3, rel=1e-15)
        assert stage.w * stage.g == pytest.approx(1.0, rel=1e-15)
        with pytest.raises(ValueError, match=">= 0 dB"):
            Stage.from_loss_db(-1.0)

    def test_db_accessors(self):
        stage = Stage(w=10.0, g=100.0)
        assert stage.wf_db == pytest.approx(10.0)
        assert stage.g == 100.0

    def test_ideal(self):
        stage = Stage(w=1.0, g=db_to_linear(7.0))
        assert stage.w == 1.0
        assert stage.g == pytest.approx(10.0 ** 0.7)


class TestCascade:
    def test_two_stage_example(self):
        composite = cascade([Stage(2.0, 10.0), Stage(4.0, 5.0)])
        assert composite.w == pytest.approx(4.2, rel=1e-12)
        assert composite.g == pytest.approx(50.0, rel=1e-12)

    def test_ideal_stages_waste_nothing(self):
        assert cascade([Stage(1.0, 7.0)]).w == 1.0
        assert cascade([Stage(1.0, 3.0), Stage(1.0, 2.0)]).w == 1.0

    def test_three_stage_example(self):
        composite = cascade([Stage(1.5, 2.0), Stage(2.0, 4.0), Stage(3.0, 10.0)])
        # 3 + 1/10 + 0.5/40
        assert composite.w == pytest.approx(3.1125, rel=1e-12)
        assert composite.g == pytest.approx(80.0, rel=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            cascade([])

    def test_gain_underflow_is_a_value_error(self):
        # Once a ZeroDivisionError, which the CLI printed as a traceback.
        stages = [Stage(2.0, 1.0), Stage(1e10, 1e-200), Stage(1e10, 1e-200)]
        with pytest.raises(ValueError, match="gain to the sink underflows to 0"):
            cascade(stages)

    def test_single_stage_identity(self):
        stage = Stage(3.0, 0.5, "only")
        composite = cascade([stage])
        assert composite.w == stage.w
        assert composite.g == stage.g

    def test_associativity(self):
        rng = np.random.default_rng(101)
        for _ in range(300):
            a, b, c = random_stages(rng, 3)
            split = cascade([cascade([a, b]), c])
            joint = cascade([a, b, c])
            assert split.w == pytest.approx(joint.w, rel=1e-12)
            assert split.g == pytest.approx(joint.g, rel=1e-12)

    def test_monotone_in_any_stage_w(self):
        rng = np.random.default_rng(7)
        stages = random_stages(rng, 5)
        base = cascade(stages).w
        for i in range(5):
            bumped = list(stages)
            bumped[i] = Stage(stages[i].w + 0.5, stages[i].g)
            assert cascade(bumped).w > base

    def test_sink_gain_divides_upstream_contributions(self):
        # Scaling the last gain by k divides every upstream (W_i - 1) term by k.
        stages = [Stage(3.0, 2.0), Stage(2.5, 0.4), Stage(2.0, 10.0)]
        k = 8.0
        scaled = stages[:-1] + [Stage(stages[-1].w, stages[-1].g * k)]
        upstream = cascade(stages).w - stages[-1].w
        upstream_scaled = cascade(scaled).w - stages[-1].w
        assert upstream_scaled == pytest.approx(upstream / k, rel=1e-12)

    def test_label_joining(self):
        composite = cascade([Stage(1.0, 1.0, "a"), Stage(1.0, 1.0, "b")])
        assert composite.label == "a>b"
        assert cascade([Stage(1.0, 1.0)], label="x").label == "x"


class TestPowerFlow:
    def test_two_stage_example(self):
        report = power_flow([Stage(2.0, 10.0), Stage(4.0, 5.0)], 1.0)
        assert [f.p_consumed_w for f in report.stages] == [
            pytest.approx(19.0),
            pytest.approx(190.0),
        ]
        assert report.p_consumed_path_w == pytest.approx(210.0)
        assert report.w == pytest.approx(4.2, rel=1e-12)
        assert report.p_wasted_w == pytest.approx(160.0)

    def test_ideal_amplifier_consumes_output_minus_input(self):
        for gain in (0.25, 1.0, 7.0, 1e4):
            report = power_flow([Stage(1.0, gain)], 1.0)
            assert report.stages[0].p_consumed_w == pytest.approx(gain - 1.0, abs=1e-12)
            assert report.p_wasted_w == 0.0

    def test_ideal_cascade_wastes_nothing(self):
        report = power_flow([Stage(1.0, 3.0), Stage(1.0, 0.5), Stage(1.0, 2.0)], 2.0)
        assert report.p_wasted_w == pytest.approx(0.0, abs=1e-12)

    def test_totals_identity(self):
        rng = np.random.default_rng(11)
        stages = random_stages(rng, 4)
        report = power_flow(stages, 3.0)
        assert report.p_consumed_path_w == pytest.approx(
            report.w * report.p_signal_w, rel=1e-12
        )
        assert report.p_wasted_w == pytest.approx(
            report.p_consumed_path_w - report.p_signal_w, rel=1e-9
        )

    def test_input_validation(self):
        with pytest.raises(ValueError, match="at least one"):
            power_flow([], 1.0)
        with pytest.raises(ValueError, match="source power"):
            power_flow([Stage(1.0, 1.0)], 0.0)
        with pytest.raises(ValueError, match="source power must be finite"):
            power_flow([Stage(1.0, 1.0)], math.inf)

    @pytest.mark.parametrize(
        "stages, p_source_w, named",
        [
            ([Stage(30.0, 30.0), Stage(30.0, 30.0)], 1e308, "p_signal_w = inf"),
            ([Stage(1.0, 1e-300)], 1e-300, "p_signal_w = 0.0"),
            ([Stage(2.0, 1.0, "pa"), Stage(1.0, 1e-10)], 1e308, "stage 'pa' p_consumed_w = inf"),
            ([Stage(1e300, 1.0)], 1e10, "p_consumed_path_w = inf"),
            ([Stage(1.0, 1e200), Stage(1.0, 1e200)], 1e-300, "g = inf"),
        ],
        ids=["signal-overflow", "signal-underflow", "stage-consumption", "total", "gain"],
    )
    def test_out_of_range_result_names_the_quantity(self, stages, p_source_w, named):
        with pytest.raises(ValueError, match=re.escape(named) + ".*out of float range"):
            power_flow(stages, p_source_w)


class TestOracleEquivalence:
    def test_closed_form_matches_energy_accounting(self):
        rng = np.random.default_rng(2024)
        for _ in range(1000):
            stages = random_stages(rng, int(rng.integers(1, 9)))
            closed = cascade(stages)
            flowed = power_flow(stages, 10.0 ** rng.uniform(-3.0, 3.0))
            assert closed.w == pytest.approx(flowed.w, rel=1e-9)
            assert closed.g == pytest.approx(flowed.g, rel=1e-9)


class TestPowerHelpers:
    def test_wasted_power_examples(self):
        assert wasted_power(3.5, 120.0) == pytest.approx(300.0)
        assert wasted_power(1.0, 55.0) == 0.0
        assert wasted_power(4.2, 50.0) == pytest.approx(160.0)

    def test_total_consumed_examples(self):
        assert total_consumed_power(3.5, 120.0, 80.0) == pytest.approx(500.0)
        assert total_consumed_power(3.0, 120.0, 140.0) == pytest.approx(500.0)
        assert total_consumed_power(1.0, 0.0, 42.0) == 42.0

    def test_validation(self):
        with pytest.raises(ValueError):
            wasted_power(0.5, 1.0)
        with pytest.raises(ValueError):
            wasted_power(2.0, -1.0)
        with pytest.raises(ValueError):
            total_consumed_power(2.0, 1.0, -0.1)

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: wasted_power(math.nan, 1.0), "waste factor must be >= 1, got nan"),
            (lambda: wasted_power(2.0, math.inf), "signal power must be >= 0 W, got inf"),
            (
                lambda: total_consumed_power(2.0, 1.0, math.nan),
                "non-path power must be >= 0 W, got nan",
            ),
            (lambda: wasted_power(math.inf, 0.0), "waste factor must be >= 1, got inf"),
            (
                lambda: total_consumed_power(math.inf, 0.0),
                "waste factor must be >= 1, got inf",
            ),
        ],
        ids=["nan-w", "infinite-signal", "nan-non-path", "infinite-w", "infinite-w-total"],
    )
    def test_non_finite_operands_rejected(self, call, message):
        # Each once returned nan or inf: NaN passed the `< 1` and `< 0` tests,
        # and an infinite W times a zero signal power gave nan.
        with pytest.raises(ValueError, match=re.escape(message)):
            call()


# Values that check their fields and store them through the instance
# __dict__ in their own __init__. The __init__ that dataclass generates for
# a frozen class calls __dataclass_builtins_object__.__setattr__ per field.
DICT_INIT = [Stage, Branch, Layout]

RECORDS = [
    Stage(2.0, 10.0, "pa"),
    StageFlow("pa", 1.0, 10.0, 19.0, 10.0),
    power_flow([Stage(2.0, 10.0, "driver"), Stage(4.0, 5.0, "pa")], 1.0),
    Branch(Stage(2.0, 10.0), 0.5),
]


def copy_by_field_name(record):
    """A copy built by passing every field by name."""
    if dataclasses.is_dataclass(record):
        return dataclasses.replace(record)
    return record._replace()


def first_field(record):
    if dataclasses.is_dataclass(record):
        return dataclasses.fields(record)[0].name
    return record._fields[0]


class TestRecordInits:
    def test_no_record_init_calls_setattr(self):
        assert [cls for cls in DICT_INIT if "__setattr__" in cls.__init__.__code__.co_names] == []

    @pytest.mark.parametrize(
        "cls", DICT_INIT + [StageFlow, CascadeReport, DropResult, PowerControlResult, DropRow],
        ids=lambda cls: cls.__name__,
    )
    def test_init_parameters_match_the_fields(self, cls):
        # A field added without its __init__ line fails here. A NamedTuple
        # takes its fields, in order and without defaults, in __new__.
        if dataclasses.is_dataclass(cls):
            init, fields = cls.__init__, [
                (f.name, inspect.Parameter.empty if f.default is dataclasses.MISSING else f.default)
                for f in dataclasses.fields(cls) if f.init
            ]
        else:
            init, fields = cls.__new__, [(name, inspect.Parameter.empty) for name in cls._fields]
        params = list(inspect.signature(init).parameters.values())[1:]
        assert [(p.name, p.default, p.kind) for p in params] == [
            (name, default, inspect.Parameter.POSITIONAL_OR_KEYWORD) for name, default in fields
        ]

    @pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
    def test_fields_are_stored_under_their_names(self, record):
        # A swapped store shows in a copy that passes every field by name.
        assert copy_by_field_name(record) == record

    @pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
    def test_assignment_is_refused(self, record):
        # A frozen dataclass raises FrozenInstanceError, an AttributeError.
        with pytest.raises(AttributeError):
            setattr(record, first_field(record), 1.0)

    @pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
    def test_pickle_round_trip(self, record):
        copy = pickle.loads(pickle.dumps(record))
        assert copy == record
        assert hash(copy) == hash(record)
        assert repr(copy) == repr(record)

    def test_replace_reruns_the_checks(self):
        message = "waste factor must be finite and >= 1, got 0.5"
        with pytest.raises(ValueError, match=re.escape(message)):
            dataclasses.replace(Stage(2.0, 1.0), w=0.5)
        with pytest.raises(ValueError, match="branch weight must be finite and >= 0"):
            dataclasses.replace(RECORDS[-1], weight=math.nan)


def package_classes():
    """Every class defined in a module of the package."""
    import wastefactor

    found = []
    for info in pkgutil.iter_modules(wastefactor.__path__):
        module = importlib.import_module(f"wastefactor.{info.name}")
        found += [
            cls for cls in vars(module).values()
            if isinstance(cls, type) and cls.__module__ == module.__name__
        ]
    return found


NAMED_TUPLES = {
    "core.StageFlow", "core.CascadeReport", "netsim.LinkBudget", "netsim.PowerControlResult",
    "netsim.DropResult", "netsim.DropRow", "netsim.AggregateRow", "estimate.WasteFit",
    "metrics.EeSweepPoint", "config.ConfigDocument", "components.ConvertedDevice",
}


class TestRecordRule:
    """A record that checks nothing is a NamedTuple; a frozen dataclass
    checks its fields, in a ``__post_init__`` or in its own ``__init__``."""

    def test_every_dataclass_checks_its_fields(self):
        unchecked = [
            cls.__qualname__ for cls in package_classes()
            if dataclasses.is_dataclass(cls)
            and not hasattr(cls, "__post_init__")
            # dataclass builds the __init__ it generates from a string.
            and cls.__init__.__code__.co_filename != inspect.getfile(cls)
        ]
        assert unchecked == []

    def test_named_tuple_records(self):
        found = {
            f"{cls.__module__.removeprefix('wastefactor.')}.{cls.__qualname__}"
            for cls in package_classes() if issubclass(cls, tuple) and hasattr(cls, "_fields")
        }
        assert found == NAMED_TUPLES

    @pytest.mark.parametrize("name", sorted(NAMED_TUPLES))
    def test_named_tuple_pickles_to_an_equal_copy(self, name):
        module, _, cls_name = name.partition(".")
        cls = getattr(importlib.import_module(f"wastefactor.{module}"), cls_name)
        record = cls(*(f"value {i}" for i in range(len(cls._fields))))
        copy = pickle.loads(pickle.dumps(record))
        assert type(copy) is cls
        assert copy == record
        assert repr(copy) == repr(record)
