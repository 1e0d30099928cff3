"""The CSV reports of five small runs, pinned byte for byte.

``gamma example2`` (h 4 and 8, N 16, a 256-interval certificate, optimizer
on) runs the half-line node-wise sweep; ``gamma positive`` on a tripod with
a ``minimize_action`` base curve in flow mode runs the tripod Newton search.
``flow`` on quantile vectors writes a trajectory with its ``f_value``,
``speed`` and ``slope`` columns.  ``recovery`` on the same tripod config
writes the h = 8 recovery curve: tripod Newton, flow-mode pieces,
concatenation, the time flip and the ``edge`` column.  ``validate all`` at
seed 0 writes the residuals of every validator over the built-in
catalogue.  A change that moves one printed digit fails here.  The
expected files were written by the lab itself; to regenerate them after
an intended change, from the root of a checkout:

    PYTHONPATH=src python -m metric_action_lab.cli gamma example2 \\
        --config tests/data/gamma_example2.config.json --out /tmp/golden
    PYTHONPATH=src python -m metric_action_lab.cli gamma positive \\
        --config tests/data/gamma_positive_tripod.config.json --out /tmp/golden
    PYTHONPATH=src python -m metric_action_lab.cli flow \\
        --config tests/data/flow_quantile.config.json --out /tmp/golden
    PYTHONPATH=src python -m metric_action_lab.cli recovery \\
        --config tests/data/gamma_positive_tripod.config.json --out /tmp/golden
    PYTHONPATH=src python -m metric_action_lab.cli validate all --seed 0 --out /tmp/golden
    cp /tmp/golden/gamma_example2.csv tests/data/gamma_example2.csv
    cp /tmp/golden/gamma_positive.csv tests/data/gamma_positive_tripod.csv
    cp /tmp/golden/trajectory.csv tests/data/flow_quantile.csv
    cp /tmp/golden/recovery_h8.csv tests/data/recovery_tripod_h8.csv
    cp /tmp/golden/validate_all.csv tests/data/validate_all.csv
"""

from pathlib import Path

import pytest

from metric_action_lab.cli import main

DATA = Path(__file__).parent / "data"


# run -> (command line before --config or --out, file it writes, expected file)
RUNS = {
    "example2": (["gamma", "example2"], "gamma_example2.csv", "gamma_example2.csv"),
    "positive": (["gamma", "positive"], "gamma_positive.csv", "gamma_positive_tripod.csv"),
    "flow": (["flow"], "trajectory.csv", "flow_quantile.csv"),
    "recovery": (["recovery"], "recovery_h8.csv", "recovery_tripod_h8.csv"),
    "validate": (["validate", "all", "--seed", "0"], "validate_all.csv", "validate_all.csv"),
}


@pytest.mark.parametrize(
    "run, stem",
    [
        ("example2", "gamma_example2"),
        ("positive", "gamma_positive_tripod"),
        ("flow", "flow_quantile"),
        ("recovery", "gamma_positive_tripod"),
        pytest.param("validate", None, id="validate-seed0"),   # no config
    ],
)
def test_report_csv_is_byte_identical(tmp_path, run, stem):
    command, written, expected = RUNS[run]
    config = [] if stem is None else ["--config", str(DATA / f"{stem}.config.json")]
    main([*command, *config, "--out", str(tmp_path)])
    assert (tmp_path / written).read_bytes() == (DATA / expected).read_bytes()
