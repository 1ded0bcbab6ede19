"""`tools/cli_digests.py --compare` on two hand-written output directories;
no CLI command is run."""
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "cli_digests.py"


def test_compare_lists_moved_numbers_and_text(tmp_path):
    old, new = tmp_path / "old", tmp_path / "new"
    old.mkdir()
    new.mkdir()
    files = {
        "same.csv": ("a,1.5\n", "a,1.5\n"),
        # "n300" holds a number that does not move
        "moved.json": ('{"n300": 1.0, "g": 2.0e-3, "h": [4, 5]}\n',
                       '{"n300": 1.0, "g": 2.1e-3, "h": [4, 6]}\n'),
        "verdict.csv": ("resonance,true\n", "resonance,false\n"),
        "spelled.csv": ("x,1.0\n", "x,1.00\n"),
        "only-old.txt": ("1\n", None),
    }
    for name, texts in files.items():
        for outdir, text in zip((old, new), texts):
            if text is not None:
                (outdir / name).write_text(text, encoding="utf-8")
    out = subprocess.run([sys.executable, str(TOOL), "--compare", str(old), str(new)],
                         capture_output=True, text=True, check=True).stdout
    assert out.splitlines() == [
        "moved.json: 2 number(s) moved, largest relative change 0.17",
        f"only-old.txt: missing in {new}",
        "spelled.csv: text differs",
        "verdict.csv: text differs",
    ]
