"""Record the SHA-256 of every exact-method report on the seed-0 inputs.

The gate compares later runs against these hashes, so run this only at a
commit whose report bytes are the reference, from the root of a checkout::

    python3 perfbench/record_reference.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import run
import workloads


def main() -> int:
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    import gate

    recorded = {}
    for name in workloads.WORKLOADS:
        bench = run.Bench(root, name, seed=0)
        bench.inproc = run.InProcess()
        ops, outputs = bench.reference_outputs()
        recorded[name] = {str(i): gate.sha256(text)
                          for i, (code, text) in enumerate(outputs)
                          if code == 0 and gate.hashed(text)}
        print(f"{name}: {len(recorded[name])} of {len(ops)} reports hashed")
    gate.REFERENCE_FILE.write_text(json.dumps(recorded, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
