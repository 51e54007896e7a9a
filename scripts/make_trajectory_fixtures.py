#!/usr/bin/env python
"""Regenerate ``tests/data/trajectory_fixtures.json``, the trajectory stream pins.

    python scripts/make_trajectory_fixtures.py

The fixtures pin the seeded trajectory stream (currently stream v2) of
every error model in ``tests/test_qx_channels.py``'s ``MODELS``: a
simulator run and a direct one-state injection sequence, recorded by the
same ``simulator_record`` / ``direct_record`` functions the tests compare
with.  Regenerate them only in a change that deliberately versions the
stream, and say so in the change log.
"""

from __future__ import annotations

import json
import os
import sys

from _bootstrap import REPO_ROOT, ensure_importable  # noqa: E402

ensure_importable()
sys.path.insert(0, os.path.join(REPO_ROOT, "tests"))

import test_qx_channels as channels  # noqa: E402


def main() -> None:
    records = {
        "direct": {name: channels.direct_record(model) for name, model in channels.MODELS.items()},
        "simulator_runs": {
            name: channels.simulator_record(model) for name, model in channels.MODELS.items()
        },
    }
    with open(channels.FIXTURES, "w") as handle:
        json.dump(records, handle, indent=1, sort_keys=True)
    print(f"wrote {channels.FIXTURES}")


if __name__ == "__main__":
    main()
