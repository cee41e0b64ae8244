"""Record the exit status and digest of every workload document.

    python3 perfbench/record_expected.py

Writes ``perfbench/expected.json`` from the checkout it runs in.  Run it only
at the commit the correctness gate is anchored to (the seed commit, written
into the file as ``recorded_from``): later commits must reproduce these
documents byte for byte, so recording from them would hide a changed result.
"""

import json
import sys

from run import HERE, ROOT, WORKLOADS, child_env, digest, git_commit, op_key, reference_failure, run_pass


def main() -> int:
    ops = {}
    for workload in WORKLOADS.values():
        result = run_pass(ROOT, child_env(ROOT, 0), workload, trace=False, timeout=600.0)
        for argv, (status, document) in zip(workload, result["results"]):
            reason = f"exit status {status!r}" if status != 0 else reference_failure(argv, document)
            if reason is not None:
                print(f"error: {op_key(argv)}: {reason}", file=sys.stderr)
                return 1
            ops[op_key(argv)] = {"status": status, "sha256": digest(document),
                                 "bytes": len(document.encode("utf-8"))}
    record = {"recorded_from": git_commit(ROOT), "ops": ops}
    (HERE / "expected.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
