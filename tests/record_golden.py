"""Re-record the golden command-line artifacts under ``tests/golden``.

    python tests/record_golden.py [NAME ...]

Makes each named golden run of ``test_cli.py`` (all of them by default) in
a fresh temporary directory, exactly as ``test_golden_artifacts`` does, and
replaces ``tests/golden/<name>/`` with its artifacts.  A golden file changes
only on purpose: review ``git diff tests/golden`` before committing.
"""

import contextlib
import io
import os
import shutil
import sys
import tempfile
from pathlib import Path

TESTS = Path(__file__).resolve().parent
sys.path[:0] = [str(TESTS.parent / "src"), str(TESTS)]

from test_cli import GOLDEN, GOLDEN_RUNS, _golden_run  # noqa: E402


def record(name: str) -> None:
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as workdir:
        os.chdir(workdir)
        try:
            printed = io.StringIO()
            with contextlib.redirect_stdout(printed):
                artifacts = _golden_run(name, Path(workdir), printed.getvalue)
        finally:
            os.chdir(home)
    target = GOLDEN / name
    shutil.rmtree(target, ignore_errors=True)
    target.mkdir()
    for file_name, content in artifacts.items():
        (target / file_name).write_bytes(content)
    print(f"recorded {target}: {', '.join(sorted(artifacts))}")


if __name__ == "__main__":
    for name in sys.argv[1:] or GOLDEN_RUNS:
        if name not in GOLDEN_RUNS:
            sys.exit(f"unknown golden run {name!r}; choose from {', '.join(GOLDEN_RUNS)}")
        record(name)
