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
        ({"mode": "server-sim-equiv", **EQUIV_2X3}, 0, "1055e395de242a42716b8fd31ea2ea11b4b855c630eae4ef0a664461a46c5e55"),
        ({"mode": "client-sim-equiv", **EQUIV_2X3}, 0, "5cb7c7cfe41d7ba213c41530b69d889200b8c5f36c35ce6d418591bae28a7d31"),
        ({"mode": "intermediate-equiv", **EQUIV_2X3}, 0, "eae107d6cf663563a47e2aad00689c40d911f2b2202a283f3a327d5cdafc882c"),
        (
            {"mode": "client-sim-equiv", "n_wires": 4, "n_columns": 2, "seed": 4, "coalition": [1, 3], "m_copies": 3,
             "trials": 120, "threshold": 0.9},
            0, "61d7d629b7ed3e10e183b7de48ca7fca99e0d7bf40629e43e5cf8f75df811959",
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
