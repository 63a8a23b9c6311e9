"""Self-tests of the stack benchmark; run by path, not part of tier-1:

    PYTHONPATH=src python3 -m pytest benchmarks/stack/tests
"""

import sys
from pathlib import Path

_STACK = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(_STACK), str(_STACK.parents[1] / "src")]
