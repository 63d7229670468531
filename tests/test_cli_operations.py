"""``trace``/``faults`` output pinned against the pre-runner CLI.

Both commands run their operation (a plain transfer, a uniform step or
a collective) through one runner.  The digests below are the exact
``--json`` stdout of the two commands before they shared it, for t3d
at paper rates, 6 nodes and 8192 bytes.  Every ``faults`` payload must
match byte for byte.  ``trace`` payloads match too, except that a
uniform step's ``transfer_mbps``/``transfer_ns`` used to be its single
sample's figures and are now the step's own per-node figures.
"""

import hashlib
import json
import os

import pytest

from repro.__main__ import main

_SETUP = [
    "--machine", "t3d", "--rates", "paper", "--nodes", "6",
    "--bytes", "8192", "--json",
]

_PINNED = {
    "trace": {
        None: "e2e8908a163e978c081f0895dc2f235a0e410a0881644719bea36e0f1469d77a",
        "all-to-all": "bae658fc22d2c84551dab78d236fd2d63dae63dacf8dd48e26c8b73d2fd274fc",
        "shift": "193719be217802d736eb0902e46a22f7463df76c2bdca06581ec61a02be0d957",
        "broadcast": "bef278a2118165325af57fa4f98b1f05e2ac73f965c829c4ea2bb885b66f362d",
        "allreduce": "9b3c228bd06648d45cc0b1802fce9adf8437789518d3ca05a7b6654d9f9cc8e7",
        "alltoall": "40657aa441348e1bf7e596d220192187240091ee16e80cab4738f674a079859c",
    },
    "faults": {
        None: "9a9e962e07fff30efe396810313789bf65dd4b9754d0a9db047b5039ea06b75b",
        "all-to-all": "1609c36bfefa892e4bcbc1262df9e258dfecb9bbcc75a23c5cc2de8147f2600a",
        "shift": "e2d20e2a2f383dc4be4527772e012f27f3b1c0f2ae992163696dd3b2f88d69a9",
        "broadcast": "8fd946e63c7760e336a7795677e985e778fd467100f2aaf6c7aeb0cb9ba47693",
        "allreduce": "00984edbb9deb20068fc2e9d3430321973bc2c9acb134e258a6359245daf04bc",
        "alltoall": "651a515e449c0b2cd7972609949c48cc37dcdb5897f1e2898be388e995e2765d",
    },
}

#: A uniform step's old trace figures: its one sample's, shift and
#: all-to-all alike (the sample is the same single transfer).
_OLD_STEP_SAMPLE = {
    "transfer_mbps": 29.474753582874765,
    "transfer_ns": 277932.7731092437,
}

_STEPS = [None, "all-to-all", "shift", "broadcast", "allreduce", "alltoall"]


def _stdout(capsys, command, step):
    argv = [command, *_SETUP]
    if step is not None:
        argv += ["--step", step]
    if command == "trace":
        argv += ["--out", os.devnull]
    assert main(argv) == 0
    return capsys.readouterr().out


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("step", _STEPS)
def test_faults_payload_is_unchanged(step, capsys):
    assert _digest(_stdout(capsys, "faults", step)) == _PINNED["faults"][step]


@pytest.mark.parametrize("step", _STEPS)
def test_trace_payload_is_unchanged_but_for_step_figures(step, capsys):
    payload = json.loads(_stdout(capsys, "trace", step))
    if step in ("all-to-all", "shift"):
        # The operation's figures are the step's, as faults reports.
        nominal = json.loads(_stdout(capsys, "faults", step))["nominal"]
        meta = payload["metadata"]
        assert meta["transfer_mbps"] == nominal["mbps"]
        assert meta["transfer_ns"] == nominal["ns"]
        meta.update(_OLD_STEP_SAMPLE)
    text = json.dumps(payload, indent=2) + "\n"
    assert _digest(text) == _PINNED["trace"][step]
