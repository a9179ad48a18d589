"""Byte identity of every ``fg`` command on the shipped configs.

Each invocation below runs ``cli.main`` in-process on a config that the test
only reads (bank seed 0 where a bank is drawn).  The test pins the exit code
and the SHA-256 of every report the command writes, of its stdout (with the
output directory masked) and of its stderr.  A refactor that claims to leave
the numbers alone must leave every digest alone.

To recapture the digests after a change that alters the bytes on purpose,
run from the root of a checkout

    PYTHONPATH=src python tests/test_report_bytes.py

and paste the printed ``DIGESTS`` over the one below.  A change that alters
any digest must say in CHANGES.md which outputs changed and why.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import tempfile

import pytest

from finslergamma.cli import main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CONFIGS = ("configs/gaussian_asym1d.json", "configs/circle_identities.json",
           "perfbench/configs/randers_box2d.json",
           "configs/gaussian_asym1d_finite_n.json")
COMMANDS = (("space", "describe"), ("flow", "run"), ("ineq", "check"),
            ("identities", "run"))
MASK = "<out>"


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_invocation(config: str, group: str, action: str) -> dict:
    """Exit code and digests of one ``fg`` invocation in a fresh directory."""
    with tempfile.TemporaryDirectory() as out_dir:
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main([group, action, "--config", os.path.join(ROOT, config),
                         "--out", out_dir])
        digests = {"exit": code,
                   "stdout": _sha(stdout.getvalue().replace(out_dir, MASK).encode()),
                   "stderr": _sha(stderr.getvalue().replace(out_dir, MASK).encode())}
        for name in sorted(os.listdir(out_dir)):
            with open(os.path.join(out_dir, name), "rb") as fh:
                digests[name] = _sha(fh.read())
    return digests


def _key(config: str, group: str, action: str) -> str:
    return f"{os.path.basename(config)} {group} {action}"


DIGESTS = {
    'gaussian_asym1d.json space describe': {
        'exit': 0,
        'stdout': 'fff4b10ecae49825862d84b6f9a5930ad51ad1e939e3df313aedc336d3eb3720',
        'stderr': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'describe.json': '60147783a043ae4fc230875309bb0afc478e08ec2876da8cfd39d3330b05e626',
    },
    'gaussian_asym1d.json flow run': {
        'exit': 0,
        'stdout': 'a9c03ef40684881268901bc075e65f5a651a9d6ef834d5f5650037790a362116',
        'stderr': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'flow_series.csv': 'a63427ec01fcb6d5c705629d7a2c94af6a3a190eaf4d61eeb560d01353de152c',
        'flow_summary.json': '0a64c930b3146134f1603f4557dbbe5eb1e0b8dbb5116629993d494990d9d691',
    },
    'gaussian_asym1d.json ineq check': {
        'exit': 0,
        'stdout': '4c01e70c2c21e383592a47245d11a2b850a8afaf2462900ea14c0ea4441f15c5',
        'stderr': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'ineq_report.json': '47e00c4b759ab11ee7638c14603b298efd6a2204239f7fa6b77ca987d658ed3c',
    },
    'gaussian_asym1d.json identities run': {
        'exit': 2,
        'stdout': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'stderr': 'e127a214717fd56e784e0358b17217018e316d7160d07a84887e274adac0c37e',
    },
    'circle_identities.json space describe': {
        'exit': 0,
        'stdout': '7081dad73ab531246b233200056b2b6f5fc7fd5b6936f7d1ecbb582e832bc6c9',
        'stderr': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'describe.json': 'fe05f8f1cc4ad650504e1ef38b71fa79e6c6900abc5d33a2d70b1408bbf34a5d',
    },
    'circle_identities.json flow run': {
        'exit': 2,
        'stdout': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'stderr': 'c265182c4c370e96fa17247b1e32465b6006da8064a4484bb5a04889ec0e3514',
    },
    'circle_identities.json ineq check': {
        'exit': 2,
        'stdout': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'stderr': '334b7b3d9862bb66e7ba4390f1f0fe4f31cc1adf7012a241a555c5b0ad42d057',
    },
    'circle_identities.json identities run': {
        'exit': 0,
        'stdout': '0ba03718385183d7da4eda9330798845950ac4235522b9d0cc777c01fa9eefdb',
        'stderr': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'identities.json': '89ee0dd3e48d279adbf3e13a0a086edd0d98bf23186bd92d3c1cafc36e6a2001',
    },
    'randers_box2d.json space describe': {
        'exit': 0,
        'stdout': 'ddd58d717c7ceed1e2213a466764d425c186fd0896cf2de9881e62d3a7902a6e',
        'stderr': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'describe.json': '8cf509906fd9e54f158ce507c27a2e20a82b860a9c0dc7dbbd43ea866fe020b4',
    },
    'randers_box2d.json flow run': {
        'exit': 0,
        'stdout': 'a85cb5c49e9e52736c78f34966c6c727379a525bd702d6b204731c19089b0d86',
        'stderr': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'flow_series.csv': '7d838d63ffa046d91a40d5cb784d70991c68bef5e6a85934e6e04fa65737688d',
        'flow_summary.json': 'd24bec92b83c60f64a6a221256f77fdc2393df115dfb02577041403a580138e0',
    },
    'randers_box2d.json ineq check': {
        'exit': 0,
        'stdout': '7af61aca0d35369098c1bd52ecb6362d49e5f288bf1d06f1337232a13a8df92a',
        'stderr': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'ineq_report.json': 'bc900a5bead0490d2ae8e727cba03aa5adf912e44e59b1ed78b2fce915704283',
    },
    'randers_box2d.json identities run': {
        'exit': 2,
        'stdout': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'stderr': 'e127a214717fd56e784e0358b17217018e316d7160d07a84887e274adac0c37e',
    },
    'gaussian_asym1d_finite_n.json space describe': {
        'exit': 0,
        'stdout': '2a6b9ddb97a0244a4f69267480585be4692d7f7725d38820919cfc10a2dead5c',
        'stderr': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'describe.json': 'a57d53dad1b43d34f7c24502e84ad14c7a8c11171bdbfce589253ac4a3c2574b',
    },
    'gaussian_asym1d_finite_n.json flow run': {
        'exit': 2,
        'stdout': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'stderr': 'c265182c4c370e96fa17247b1e32465b6006da8064a4484bb5a04889ec0e3514',
    },
    'gaussian_asym1d_finite_n.json ineq check': {
        'exit': 0,
        'stdout': '3445f01a17f80ab26ea3196100e9285c6a8891db946f7c146b38974de6f39ae7',
        'stderr': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'ineq_report.json': 'e0dc5fba946b3f2fe85062d1635e3b9bbd77bb2a22288fbd6b78c32baf804eda',
    },
    'gaussian_asym1d_finite_n.json identities run': {
        'exit': 2,
        'stdout': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'stderr': 'e127a214717fd56e784e0358b17217018e316d7160d07a84887e274adac0c37e',
    },
}


@pytest.mark.parametrize("config", CONFIGS)
@pytest.mark.parametrize("group, action", COMMANDS)
def test_outputs_are_byte_identical(config, group, action):
    assert run_invocation(config, group, action) == DIGESTS[_key(config, group, action)]


if __name__ == "__main__":
    print("DIGESTS = {")
    for config in CONFIGS:
        for group, action in COMMANDS:
            print(f"    {_key(config, group, action)!r}: {{")
            for name, value in run_invocation(config, group, action).items():
                print(f"        {name!r}: {value!r},")
            print("    },")
    print("}")
