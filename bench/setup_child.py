"""Fresh-process probe, run as a child of ``run.py``.

``setup_child.py SRC INPUTS`` times ``import combisig`` plus loading every
instance in the JSON list at INPUTS with ``jsonio.instance_from_json``, the
set-up a user of the library pays once per process.  ``setup_child.py SRC
--import-cli`` times ``import combisig.cli`` alone.  Either way the last
stdout line is the elapsed seconds.
"""

import time

START = time.perf_counter()

import sys  # noqa: E402

sys.path.insert(0, sys.argv[1])

if sys.argv[2] == "--import-cli":
    import combisig.cli  # noqa: E402,F401
else:
    import json  # noqa: E402

    from combisig import jsonio  # noqa: E402

    with open(sys.argv[2], encoding="utf-8") as fh:
        for raw in json.load(fh):
            jsonio.instance_from_json(raw)

print(time.perf_counter() - START)
