"""Record the reference digests that the benchmark's correctness gate uses.

    python3 bench/record_digests.py

Writes ``bench/digests.json``: the sha256 of ``qschur table --d D`` output for
every table workload, and of the canonical JSON of every product and
reduction that any session workload can generate.  Run it only on
a commit whose outputs are trusted; the committed file was recorded from the
commit that introduced the benchmark.
"""

import json
import os
import sys
import tempfile

import run

sys.path.insert(0, run.SRC)

import child  # noqa: E402
from qschur import cli  # noqa: E402


def main() -> int:
    workloads = [*run.WORKLOADS.values(), *run.SMOKE_WORKLOADS.values()]
    tables = {}
    ops = {}
    with tempfile.TemporaryDirectory(prefix=".bench-tmp-", dir=run.ROOT) as tmp:
        out = os.path.join(tmp, "table.jsonl")
        for w in workloads:
            if isinstance(w, run.Table):
                if cli.main(["table", "--d", str(w.d), "--max-d-override", "--out", out]):
                    raise SystemExit(f"qschur table --d {w.d} failed")
                tables[str(w.d)] = run.sha256_file(out)
    for w in workloads:
        if isinstance(w, run.Session):
            for op in w.keyed_ops():
                prepared = child.prepare(op)
                ops[run.op_key(op)] = child.fact(prepared, child.execute(prepared))["digest"]
                print(run.op_key(op), flush=True)
    with open(run.DIGESTS, "w", encoding="utf-8") as fh:
        json.dump({"table": tables, "ops": ops}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
