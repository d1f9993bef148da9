import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
# the benchmark's modules import each other by bare name, as run.py does
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]
