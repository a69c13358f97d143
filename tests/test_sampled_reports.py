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
        ({"mode": "server-sim-equiv", **EQUIV_2X3}, 0, "b7bb1f5201d6dd5e049ef1c704eb241fd2eb4e2b4ed82a3b0fee2b018de9483a"),
        ({"mode": "client-sim-equiv", **EQUIV_2X3}, 0, "0d0c26b874229022150531a885cf5b1b1bdebf7ee48c515c9793ca504086757d"),
        ({"mode": "intermediate-equiv", **EQUIV_2X3}, 0, "26a7d18000dc6179d6da55bf44f370d902180707f71b721d818803f6fd179615"),
        (
            {"mode": "client-sim-equiv", "n_wires": 4, "n_columns": 2, "seed": 4, "coalition": [1, 3], "m_copies": 3,
             "trials": 120, "threshold": 0.9},
            0, "328ce5becde28088b5f53c288fa4ff60fd89b5894ff79674b6b95acd0ea4cba3",
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
