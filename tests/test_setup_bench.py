"""``scripts/setup_bench.py`` splits a learned-policy set-up into its
pieces in the race's order; no timing is asserted."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.fixture
def setup_bench(monkeypatch):
    for var in THREAD_VARS:  # main pins them; restored after the test
        monkeypatch.setenv(var, "1")
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    import setup_bench

    return setup_bench


def test_one_pass_reports_every_piece(setup_bench, tmp_path):
    out = tmp_path / "record.json"
    assert setup_bench.main(["--passes", "1", "--seed", "2", "--out", str(out)]) == 0
    record = json.loads(out.read_text(encoding="utf-8"))
    assert (record["seed"], record["passes"], record["instances"]) == (2, 1, 100)
    figures = record["median_of_instance_minima_us"]
    assert list(figures) == list(setup_bench.FIGURES)


def test_a_checkout_other_than_the_imported_one_is_refused(setup_bench, tmp_path, capsys):
    with pytest.raises(SystemExit) as exit:
        setup_bench.main(["--checkout", str(tmp_path), "--passes", "1"])
    assert exit.value.code == 2
    assert "satkit is already imported from" in capsys.readouterr().err
