"""The CSV reports of two small configs, pinned byte for byte.

``gamma example2`` (h 4 and 8, N 16, a 256-interval certificate, optimizer
on) runs the half-line node-wise sweep; ``gamma positive`` on a tripod with
a ``minimize_action`` base curve in flow mode runs the tripod sweep.  A
change to either search that moves one printed digit fails here.  The
expected files were written by the lab itself; to regenerate them after an
intended change, from the root of a checkout:

    PYTHONPATH=src python -m metric_action_lab.cli gamma example2 \\
        --config tests/data/gamma_example2.config.json --out /tmp/golden
    PYTHONPATH=src python -m metric_action_lab.cli gamma positive \\
        --config tests/data/gamma_positive_tripod.config.json --out /tmp/golden
    cp /tmp/golden/gamma_example2.csv tests/data/gamma_example2.csv
    cp /tmp/golden/gamma_positive.csv tests/data/gamma_positive_tripod.csv
"""

from pathlib import Path

import pytest

from metric_action_lab.cli import main

DATA = Path(__file__).parent / "data"


@pytest.mark.parametrize(
    "experiment, stem", [("example2", "gamma_example2"), ("positive", "gamma_positive_tripod")]
)
def test_report_csv_is_byte_identical(tmp_path, experiment, stem):
    main(["gamma", experiment, "--config", str(DATA / f"{stem}.config.json"), "--out", str(tmp_path)])
    written = (tmp_path / f"gamma_{experiment}.csv").read_bytes()
    assert written == (DATA / f"{stem}.csv").read_bytes()
