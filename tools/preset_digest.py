"""Print the sha256 digests of what every shipped preset writes.

    python tools/preset_digest.py [SRC]

SRC is the directory that holds the shallowop package (src/ beside this
tool by default).  Each preset runs with save_networks through
run_experiment and emit_report into a temporary directory, and one JSON
object is printed, mapping "<preset>/<file>" to the sha256 of:

  report.json  without created_at and without each run's wall_ms,
  report.csv   without its wall_ms column,
  each saved network as written.

Two trees, or two runs of one tree, that print the same object wrote the
same reports and networks, the timings aside.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path


def _untimed(path: Path) -> bytes:
    """The bytes of a written file, without the fields that vary by run."""
    if path.name == "report.json":  # indented: each of these keys is on a line of its own
        return b"".join(line for line in path.read_bytes().splitlines(keepends=True)
                        if not line.lstrip().startswith((b'"created_at":', b'"wall_ms":')))
    if path.name == "report.csv":
        rows = list(csv.reader(io.StringIO(path.read_text(), newline="")))
        timed = rows[0].index("wall_ms")
        out = io.StringIO()
        csv.writer(out).writerows([v for i, v in enumerate(row) if i != timed] for row in rows)
        return out.getvalue().encode()
    return path.read_bytes()


def preset_digests(so, out: Path) -> dict:
    """{"<preset>/<file>": sha256} for every preset run by the package so."""
    digests = {}
    for name in so.preset_names():
        doc = so.preset_dict(name)
        doc["save_networks"] = True
        report = so.run_experiment(so.ExperimentConfig.from_dict(doc))
        for path in so.emit_report(report, out / name):
            digests[f"{name}/{path.name}"] = hashlib.sha256(_untimed(path)).hexdigest()
    return digests


def main(argv: list[str]) -> int:
    src = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src"
    sys.path.insert(0, str(src.resolve()))
    import shallowop as so

    with tempfile.TemporaryDirectory() as out:
        print(json.dumps(preset_digests(so, Path(out)), indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
