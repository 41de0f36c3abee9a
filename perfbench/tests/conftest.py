import sys
from pathlib import Path

# The benchmark's modules import each other by bare name, as they do when
# run.py is started as a script; the package comes from the source tree.
ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]
