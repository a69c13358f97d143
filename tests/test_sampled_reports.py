"""The sampled CLI modes' reports, pinned by digest.

Each sampled mode draws trial i of its k-th world from
default_rng([seed, k + 2, i]), so a config fixes its report.json byte for
byte. A change to how trials are seeded, run, checked or pooled shows up
here as a changed digest or exit code.
"""
import hashlib
import json

import pytest

from mpdqc.cli import main

EQUIV_2X3 = {"n_wires": 2, "n_columns": 3, "reference_qubits": 1, "seed": 4, "trials": 150, "threshold": 0.9}


@pytest.mark.parametrize(
    "config,code,digest",
    [
        ({"mode": "server-sim-equiv", **EQUIV_2X3}, 0, "2a65563c8bade2729c7d0f4534b097a87f2c81a5d7a19c73b17bb66a4160caeb"),
        ({"mode": "client-sim-equiv", **EQUIV_2X3}, 0, "24d6270ec1caebc7822448c98cef2702153660e07d269e053026089667174428"),
        ({"mode": "intermediate-equiv", **EQUIV_2X3}, 0, "96bc90a25417de9655a97da54c6fa2db05ac497c0bd4f9464312ebcf003c23f1"),
        (
            {"mode": "client-sim-equiv", "n_wires": 4, "n_columns": 2, "seed": 4, "coalition": [1, 3], "m_copies": 3,
             "trials": 120, "threshold": 0.9},
            0, "1b90c1fce07e2628c995f8e788e7954ef9824b90623372705138fcfffee17abc",
        ),
        ({"mode": "protocol1-detection", "seed": 4, "deviation": 2, "trials": 300}, 2, "f6c5212c6b98f258dad4c8a6020ccef66f1e5b89ff95df16b1c1cf95e7150399"),
    ],
    ids=["server-sim-2x3", "client-sim-2x3", "intermediate-2x3", "client-sim-4x2-coalition", "detection-deviation-2"],
)
def test_sampled_report_is_pinned(tmp_path, config, code, digest):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out)]) == code
    assert hashlib.sha256((out / "report.json").read_bytes()).hexdigest() == digest
