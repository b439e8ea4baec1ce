"""Self-tests of the layer benchmark.

    PYTHONPATH=src python -m pytest benchmarks/layers/tests -q
"""

import sys
from pathlib import Path

LAYERS = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(LAYERS))
sys.path.insert(0, str(LAYERS.parent.parent / "src"))
