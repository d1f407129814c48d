"""The JSON codec: every record survives a trip through JSON text."""

import json

import numpy as np
import pytest

from tensormax import (
    CellConfig,
    ExperimentConfig,
    PopulationSpec,
    RegimeReport,
    SeedSpec,
    TailEstimate,
    check_regime,
    hypotest,
    max_entry,
    moderate_deviation_ratio,
    run_experiment,
    stein_chen_report,
)
from tensormax.populations import RADEMACHER, STANDARD_NORMAL, STUDENT_T_STANDARDIZED
from tensormax.serial import JsonRecord

NORMAL = PopulationSpec(STANDARD_NORMAL)
T5 = PopulationSpec(STUDENT_T_STANDARDIZED, df=5)
X = np.random.default_rng(3).standard_normal((30, 7))
CELLS = (CellConfig(n=20, p=6, m=2, spec=T5),
         CellConfig(n=20, p=6, m=3, spec=PopulationSpec(RADEMACHER), sided="one_sided"))

# One factory per case, so that collection computes nothing.
SAMPLES = {
    "seed": lambda: SeedSpec(2**64 - 1, 3),
    "population_df": lambda: T5,
    "population": lambda: NORMAL,
    "regime": lambda: check_regime(100, 50, 2),
    "regime_without_c_n": lambda: check_regime(1, 5, 2),
    "stat": lambda: max_entry(X, 3),
    "tail": lambda: TailEstimate.from_counts(3, 10),
    "stein_chen": lambda: stein_chen_report(0.0, 20, 6, 3, NORMAL, 500, SeedSpec(1), a_n=0.5),
    "ratio_with_advisory": lambda: moderate_deviation_ratio(NORMAL, 2, 20, 3.0, 500, SeedSpec(1)),
    "test_two_sided": lambda: hypotest.test_independence(X, 2),
    "test_one_sided": lambda: hypotest.test_independence(X, 3, sided="one_sided"),
    "cell": lambda: CELLS[1],
    "config": lambda: ExperimentConfig(grid=CELLS, reps=4, master_seed=9, output_path="out"),
    "cell_report": lambda: run_experiment(ExperimentConfig(grid=CELLS, reps=4, master_seed=9)).cells[1],
}


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_round_trip_through_json_text(name):
    x = SAMPLES[name]()
    assert type(x).from_json(json.loads(json.dumps(x.to_json()))) == x


def test_samples_cover_every_record_class():
    assert {type(make()) for make in SAMPLES.values()} == set(JsonRecord.__subclasses__())


def test_numpy_scalars_are_written_as_python_numbers():
    obj = SeedSpec(np.uint64(5), np.int32(2)).to_json()
    assert obj == {"master_seed": 5, "stream_id": 2}
    assert all(type(v) is int for v in obj.values())


def test_population_writes_df_only_when_set_and_never_the_label():
    assert NORMAL.to_json() == {"family": STANDARD_NORMAL}
    assert T5.to_json() == {"family": STUDENT_T_STANDARDIZED, "df": 5}
    assert PopulationSpec.from_json({"family": STANDARD_NORMAL, "label": "x"}) == NORMAL
    with pytest.raises(TypeError, match="label"):
        PopulationSpec(STANDARD_NORMAL, label="N(0,1)")


def test_missing_field_takes_default_and_unknown_keys_are_ignored():
    assert SeedSpec.from_json({"master_seed": 4, "extra": 1}) == SeedSpec(4, 0)



@pytest.mark.parametrize("cls, obj, field", [
    (CellConfig, {"n": 30.9, "p": 6, "m": 2, "spec": {"family": STANDARD_NORMAL}}, "CellConfig.n"),
    (CellConfig, {"n": 30, "p": 6, "m": True, "spec": {"family": STANDARD_NORMAL}}, "CellConfig.m"),
    (PopulationSpec, {"family": STUDENT_T_STANDARDIZED, "df": 5.5}, "PopulationSpec.df"),
    (SeedSpec, {"master_seed": float("nan")}, "SeedSpec.master_seed"),
    (ExperimentConfig, {"grid": [CELLS[0].to_json()], "reps": 2.5, "master_seed": 1}, "ExperimentConfig.reps"),
])
def test_int_fields_reject_non_integral_numbers_and_bools(cls, obj, field):
    with pytest.raises(ValueError, match=field):
        cls.from_json(obj)


def test_int_fields_take_integral_numbers():
    cell = CellConfig.from_json({"n": 30.0, "p": 6, "m": 2, "spec": {"family": STANDARD_NORMAL}})
    assert cell == CellConfig(n=30, p=6, m=2, spec=NORMAL)
    assert type(cell.n) is int


@pytest.mark.parametrize("cls, obj, field", [
    (CellConfig, {"n": "30", "p": 6, "m": 2, "spec": {"family": STANDARD_NORMAL}}, "CellConfig.n"),
    (ExperimentConfig, {"grid": [CELLS[0].to_json()], "reps": "4", "master_seed": 1}, "ExperimentConfig.reps"),
    (ExperimentConfig, {"grid": [CELLS[0].to_json()], "reps": 4, "master_seed": 1, "z_grid": ["0", "1e3"]},
     "ExperimentConfig.z_grid"),
    (ExperimentConfig, {"grid": [CELLS[0].to_json()], "reps": 4, "master_seed": 1, "z_grid": [True, 2]},
     "ExperimentConfig.z_grid"),
    (TailEstimate, {"probability": None, "hits": 1, "reps": 2, "std_error": 0.5}, "TailEstimate.probability"),
])
def test_number_fields_take_only_json_numbers(cls, obj, field):
    with pytest.raises(ValueError, match=field):
        cls.from_json(obj)


def test_float_fields_take_json_integers():
    config = ExperimentConfig.from_json({"grid": [CELLS[0].to_json()], "reps": 4, "master_seed": 1,
                                         "z_grid": [0, 2]})
    assert config.z_grid == (0.0, 2.0)
    assert all(type(z) is float for z in config.z_grid)


@pytest.mark.parametrize("cls, obj, field", [
    (ExperimentConfig, {"grid": [CELLS[0].to_json()], "reps": 4, "master_seed": 1, "output_path": 5},
     "ExperimentConfig.output_path"),
    (CellConfig, {"n": 30, "p": 6, "m": 2, "spec": {"family": STANDARD_NORMAL}, "sided": None}, "CellConfig.sided"),
    (PopulationSpec, {"family": ["standard_normal"]}, "PopulationSpec.family"),
    # each field is read before the record is built, so the other fields may be left out
    (hypotest.TestResult, {"signed_nonpositive": "false"}, "TestResult.signed_nonpositive"),
    (hypotest.TestResult, {"signed_nonpositive": 0}, "TestResult.signed_nonpositive"),
    (hypotest.TestResult, {"decisions": {"0.05": "no"}}, "TestResult.decisions"),
    (RegimeReport, {"regime": "ultra_high", "ultra_high": None}, "RegimeReport.ultra_high"),
])
def test_str_and_bool_fields_take_only_json_strings_and_booleans(cls, obj, field):
    with pytest.raises(ValueError, match=field):
        cls.from_json(obj)


@pytest.mark.parametrize("cls, obj, field", [
    (ExperimentConfig, {"grid": 5, "reps": 4, "master_seed": 1}, "ExperimentConfig.grid must be a JSON list"),
    (ExperimentConfig, {"grid": {"n": 5}, "reps": 4, "master_seed": 1}, "ExperimentConfig.grid must be a JSON list"),
    (ExperimentConfig, {"grid": [CELLS[0].to_json()], "reps": 4, "master_seed": 1, "z_grid": "0,1"},
     "ExperimentConfig.z_grid must be a JSON list"),
    (CellConfig, {"n": 30, "p": 6, "m": 2, "spec": "standard_normal"}, "CellConfig.spec must be a JSON object"),
    (ExperimentConfig, {"grid": [[30, 6, 2]], "reps": 4, "master_seed": 1}, "ExperimentConfig.grid must be a JSON object"),
    (hypotest.TestResult, {"decisions": [True]}, "TestResult.decisions must be a JSON object"),
    (hypotest.TestResult, {"decisions": {"x": True}}, "TestResult.decisions keys must read as a number"),
    (hypotest.TestResult, {"regime": "high"}, "TestResult.regime must be a JSON object"),
])
def test_lists_objects_and_keys_take_only_their_json_shape(cls, obj, field):
    with pytest.raises(ValueError, match=field):
        cls.from_json(obj)
