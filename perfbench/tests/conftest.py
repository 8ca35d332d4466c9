import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for path in (ROOT, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

TINY = """\
[meta]
name = tiny
m = 5
n = 6
limit = 7
[items]
a, a, 2
b, b, 3
c, c, 2
d, d, 4
e, e, 6
[ballots]
1, a, b
2, a, b
3, a, c
4, c, d
5, d
6, e
"""


@pytest.fixture
def instance(tmp_path):
    """A small instance file and its independent parse."""
    from perfbench import gate

    path = tmp_path / "tiny.pb"
    path.write_text(TINY)
    return path, gate.parse_raw(TINY)
