"""Set-up probe: import wpconv with numpy, scipy and yaml, build every model
a workload uses once, print ``ready`` and exit.  run.py times this process
from its start to the ``ready`` line, which is what a CLI user pays on every
run.

    python3 perfbench/setup_probe.py <workload>
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

# wpconv.cli brings numpy, scipy and yaml with it
import wpconv  # noqa: E402
import wpconv.cli  # noqa: E402,F401

import workloads  # noqa: E402


def main(workload):
    for name, p in workloads.models_used(workload):
        workloads.build_model(wpconv, name, p)
    print("ready", flush=True)


if __name__ == "__main__":
    main(sys.argv[1])
