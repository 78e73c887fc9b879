"""Set-up probe: import tpa and parse one scan config, then report ready.

`run.py` starts this script as a fresh process and times it from process
start to the "ready" line, which is the set-up a `tpa scan` user waits for
before any work starts.

    python3 bench/setup_probe.py SRC_DIR CONFIG_JSON
"""

import json
import sys

sys.path.insert(0, sys.argv[1])
from tpa import cli  # noqa: E402

cli.parse_scan_config(json.loads(sys.argv[2]))
print("ready", flush=True)
