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
           "configs/gaussian_asym1d_finite_n.json", "configs/randers_torus2d.json")
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
        'stdout': '69996004b409d456b9dd023b47b352898063ec2ed15e192682d67a0ac2aece7a',
        'stderr': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'flow_series.csv': 'f2d4189e4339ffcfefb39805ed614598df35a5ff2a8c02274d62179254a680f5',
        'flow_summary.json': '93db3786d459314072cd3f424d23c25b1554dff4a388a72bd6853932136314d3',
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
        'stdout': 'e625324a5aa854bebecbe4323ed923b893e84ec3c0b854879b035f36106d59f6',
        'stderr': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'identities.json': '2f46633480e32c54dae38dec84a1be69f1223a62a6c786ebd7de343a548a68ae',
    },
    'randers_box2d.json space describe': {
        'exit': 0,
        'stdout': 'ddd58d717c7ceed1e2213a466764d425c186fd0896cf2de9881e62d3a7902a6e',
        'stderr': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'describe.json': '8cf509906fd9e54f158ce507c27a2e20a82b860a9c0dc7dbbd43ea866fe020b4',
    },
    'randers_box2d.json flow run': {
        'exit': 0,
        'stdout': '900b11d598d9da57e23935140a14cdc1ab2f03befcb6f911529bd03ea83cb997',
        'stderr': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'flow_series.csv': '1ce5943bc295a5dc174a2b9bac524a9dd500e6da498f7b30bcf74924fcdd3623',
        'flow_summary.json': '22a601c25a5bfe55027c2e3610dbbf532130ef92fc46ba3c9796940fd25143a7',
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
    'randers_torus2d.json space describe': {
        'exit': 0,
        'stdout': 'e1b0c24d7568e602fdcc044f7233311bf8ea6d1245755e02a57c33dbe0bf64be',
        'stderr': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'describe.json': '2dec278581aed29a155b53af00fa5164f29f6da1ed512c9c3aba04b54afc21d5',
    },
    'randers_torus2d.json flow run': {
        'exit': 2,
        'stdout': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'stderr': 'c265182c4c370e96fa17247b1e32465b6006da8064a4484bb5a04889ec0e3514',
    },
    'randers_torus2d.json ineq check': {
        'exit': 2,
        'stdout': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'stderr': '334b7b3d9862bb66e7ba4390f1f0fe4f31cc1adf7012a241a555c5b0ad42d057',
    },
    'randers_torus2d.json identities run': {
        'exit': 0,
        'stdout': '3abc27bc08152b14df2871a780168e5a5df3ca537a2ab469cc35dbc659653697',
        'stderr': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'identities.json': '2b527e5cedd7da83f01cb79771ac052089ce07dce88a780a9ff50cc66aa0a6c6',
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
