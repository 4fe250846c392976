"""Every byte the CLI writes on the pinned set, against recorded sha256 digests.

Each command runs in-process on the pinned 84-row benchmark, and `synth`
writes 200 rows of each profile. Every file a command writes and everything
it prints is hashed, with the run's directory replaced
by "OUT" so that the digests do not depend on where the test runs. After a
deliberate change of output, re-record with

    PYTHONPATH=src python tests/test_report_digests.py
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

from conftest import BENCHMARK_SEED, piecewise_dataset
from fmtree.cli import KINDS, main
from fmtree.data import PROFILES, render_dataset

FIXTURE = Path(__file__).parent / "fixtures" / "report_digests.json"

USE_CASES = {
    "actors": ["simple", "average", "complex", "complex"],
    "use_cases": ["simple", "average", "average", "complex", "complex"],
    "technical": [3, 0, 5, 1, 2, 4, 3, 3, 1, 0, 5, 2, 4],
    "environmental": [2, 4, 1, 5, 0, 3, 3, 1],
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def pinned_digests(root: Path) -> dict[str, str]:
    """Digest of each output file (by its path under root) and of each command's stdout."""
    data = root / "projects.csv"
    data.write_text(render_dataset(piecewise_dataset()), encoding="utf-8")
    use_cases = root / "usecases.json"
    use_cases.write_text(json.dumps(USE_CASES), encoding="utf-8")
    seed = str(BENCHMARK_SEED)
    commands = {"compare": ["compare", "--data", str(data), "--seed", seed,
                            "--out-dir", str(root / "compare")]}
    for profile in PROFILES:
        commands[f"synth {profile}"] = ["synth", profile, "200", "--seed", seed,
                                        "--out", str(root / f"synth-{profile}.csv")]
    for kind in KINDS:
        model, predictions = root / f"{kind}.json", root / f"{kind}.csv"
        commands[f"train {kind}"] = ["train", "--model", kind, "--data", str(data),
                                     "--seed", seed, "--out", str(model)]
        commands[f"predict {kind}"] = ["predict", "--model-file", str(model),
                                       "--data", str(data), "--out", str(predictions)]
        commands[f"evaluate {kind}"] = ["evaluate", "--predictions", str(predictions),
                                        "--data", str(data),
                                        "--out", str(root / f"{kind}-report.json")]
    commands["ucp"] = ["ucp", str(use_cases)]

    digests = {}
    for name, argv in commands.items():
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            assert main(argv) == 0, name
        digests[f"{name} stdout"] = sha256(stdout.getvalue().replace(str(root), "OUT").encode())
    inputs = {data, use_cases}
    for path in sorted(root.rglob("*")):
        if path.is_file() and path not in inputs:
            digests[path.relative_to(root).as_posix()] = sha256(path.read_bytes())
    return digests


def test_pinned_outputs_match_recorded_digests(tmp_path):
    assert pinned_digests(tmp_path) == json.loads(FIXTURE.read_text(encoding="utf-8"))


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        digests = pinned_digests(Path(tmp))
    FIXTURE.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(digests)} digests to {FIXTURE}", file=sys.stderr)
