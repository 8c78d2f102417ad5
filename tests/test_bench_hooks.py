"""The names the traced benchmark wraps must exist in the library.

``perfbench/spans.targets`` lists every ``(owner, attribute)`` the traced
run (``perfbench/run.py --trace 1``) replaces by attribute lookup. Removing
or renaming one of them breaks that run with a ``KeyError``, while nothing
else in the library notices; this test makes the break show here.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.append(str(ROOT))

from perfbench.spans import Recorder, instrumented, targets  # noqa: E402


def test_every_benchmark_hook_resolves_and_is_restored():
    rec = Recorder()
    hooks = [(owner, attr) for owner, attr, _, _ in targets(rec)]
    originals = [vars(owner).get(attr) for owner, attr in hooks]
    missing = [
        "%s.%s" % (getattr(owner, "__name__", owner), attr)
        for (owner, attr), raw in zip(hooks, originals)
        if raw is None
    ]
    assert not missing, "benchmark hooks missing: %s" % ", ".join(missing)
    with instrumented(rec):
        for (owner, attr), raw in zip(hooks, originals):
            assert vars(owner)[attr] is not raw
    assert [vars(owner).get(attr) for owner, attr in hooks] == originals
