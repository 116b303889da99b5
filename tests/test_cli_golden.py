"""CLI reports compared with golden files, the "timings" field removed.

The golden reports in tests/data/cli pin the results of the exact
layers byte for byte; replace one only with a deliberate change of
results.  A report of several megabytes is stored gzipped (name.json.gz)
and compared after decompression.  Monte-Carlo reports are left out: the
determinant that numpy takes can differ across machines.
"""

import gzip
import json
from pathlib import Path

import pytest

from formaldisk.cli import main

GOLDEN = Path(__file__).parent / "data" / "cli"

CASES = {
    "graphs_2_1": ["graphs", "2", "1"],
    "weights_closed_8": ["weights", "closed", "8"],
    "formality_d3_s2_g123": ["formality", "--d", "3", "--s", "2",
                             "--gamma", "1,2,3"],
    "formality_d4_s3_g123": ["formality", "--d", "4", "--s", "3",
                             "--gamma", "1,2,3"],
    "formality_d4_s4_g1234": ["formality", "--d", "4", "--s", "4",
                              "--gamma", "1,2,3,4"],
    "formality_d2_s2_cap12_g12": ["formality", "--d", "2", "--s", "2",
                                  "--cap", "12", "--gamma", "1,2"],
    "formality_d7_s7_g1234567": ["formality", "--d", "7", "--s", "7",
                                 "--gamma", "1,2,3,4,5,6,7"],
    "twist": ["twist"],
    "todd_order10": ["todd", "--order", "10"],
    "verify_wheel_identity": ["verify", "wheel-identity"],
    "verify_gerstenhaber_t20_s7": ["verify", "gerstenhaber", "--trials", "20",
                                   "--seed", "7"],
    "verify_hkr": ["verify", "hkr"],
    "verify_wheels": ["verify", "wheels"],
    "verify_weights_closed": ["verify", "weights-closed"],
    "verify_todd": ["verify", "todd"],
    "verify_derivation": ["verify", "derivation"],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name, capsys):
    assert main(CASES[name]) == 0
    report = json.loads(capsys.readouterr().out)
    report.pop("timings", None)
    text = json.dumps(report, indent=2, sort_keys=True, ensure_ascii=False)
    path = GOLDEN / (name + ".json")
    if path.exists():
        golden = path.read_text(encoding="utf-8")
    else:
        golden = gzip.decompress(
            (GOLDEN / (name + ".json.gz")).read_bytes()).decode("utf-8")
    assert text + "\n" == golden
