"""Every artifact that the bench workloads write, pinned at seed 1: a change
that claims the same results leaves each workload's reports, certificates
and CSVs byte-identical.  A change that moves them on purpose re-pins the
digest here and says why in CHANGES.md; the outputs must still pass the
benchmark's own checks (`workloads.check_outputs`)."""

import hashlib
import importlib
from pathlib import Path

import pytest

from sidelab import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# sha256 over each output file's path, relative to the workload directory,
# and its bytes, in sorted path order
PINNED = {
    "ensemble": "c7c0c9f5ed70823325eb2f989603846d5864d7a24fc458783b0f5ba8d3f138c0",
    "cps-trace": "7a3ca76277c95e1c83b69eb64d92e3a1f8089f14d7979ee8cf1de673a00880ae",
    "certify": "95633874665c37c0f145b1c3ca7c62f5621af76f53f3a201bad1c85f49e55b1f",
    "converge": "31380b443d17ba29886728f51b1c21cbdefe685aa7ae88cbeaaa5885a37b13d8",
}


@pytest.mark.parametrize("name", PINNED)
def test_workload_artifacts_are_pinned(name, tmp_path, monkeypatch, capsys):
    # workloads.py imports its sibling oracles.py
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    workload = workloads.build(name, 1, tmp_path)
    for op in workload.ops:
        assert cli.main(["--config", str(op.config)]) == op.expect_exit, op.name
        assert workloads.check_outputs(name, op)[0] == [], op.name
    digest = hashlib.sha256()
    for path in sorted(p for op in workload.ops for p in op.outdir.rglob("*") if p.is_file()):
        digest.update(path.relative_to(tmp_path).as_posix().encode())
        digest.update(path.read_bytes())
    assert digest.hexdigest() == PINNED[name]
