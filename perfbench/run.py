"""Benchmark of cncrystal: end-to-end and per-layer metrics on fixed workloads.

Run from the root of a checkout (the Python standard library is all it needs):

    python3 perfbench/run.py --workload product_rank5 --seed 1 --seconds 36 --trace 0

Each pass of a workload starts a fresh interpreter (``perfbench/child.py``)
with ``PYTHONPATH`` set to this checkout's ``src/``, because
``fundamental_crystal`` and ``product_set`` are ``lru_cache``d and a CLI user
pays for filling them on every run.  Inside it every op -- one CLI document --
goes through ``cncrystal.cli.main``, one after another (a closed loop with a
single client).  Passes repeat until ``--seconds`` is used up.  The ops run
in a fixed order, because the caches of one op change the memory peak of the
next; the seed becomes the child's ``PYTHONHASHSEED``, which changes the
iteration order of every set and dict but no document.

Every document is checked against the digest recorded from the seed commit
(``expected.json``) and for agreement of its references (brute force with the
closed form, the column oracle with the tensor rule, every verify cell).  An op
whose exit status or document differs counts as failed.

``--trace 0`` reports the end-to-end metrics named in ``BENCHMARK.json``.
Their times are rescaled to a reference host speed by a probe timed next to
the measured code (``probe.py``): ``work_s`` is the wall time of a pass's ops,
``setup_s`` the time from spawning the interpreter until ``cncrystal.cli`` is
imported.  On a shared host raw wall times swing by a third between runs; the
rescaled ones follow the program.  The raw times are printed beside them and
kept in the record.

``--trace 1`` alternates untraced and traced passes and reports the per-layer
metrics (see ``tracer.py``) and the tracing overhead.  The last line of stdout
is the JSON result; the full record, with machine facts and the traced spans,
goes to ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from probe import rescale

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent
OUT_DIR = ".perfbench_out"

SETUP_SAMPLES = 15
HARD_LIMIT_S = 170.0  # the whole run, set-up included, ends well inside 180 s
# a user's setting must not change the measured program
DROPPED_ENV = ("CRYSTAL_VERTEX_BUDGET",)


def _product(n: int, p: int, q: int, m: int) -> list[str]:
    return ["decompose-product", "--rank", str(n), "--p", str(p), "--q", str(q),
            "--m", str(m), "--format", "json"]


def _tensor(n: int, p: int, q: int) -> list[str]:
    return ["decompose-tensor", "--rank", str(n), "--p", str(p), "--q", str(q),
            "--format", "json"]


# Each pass takes about 3-9 s on a 2-core Xeon with Python 3.11, so a 36 s run
# gives several passes to take the median of.
WORKLOADS: dict[str, list[list[str]]] = {
    # the smallest (m=1) and largest (m=5) C5 (4,5) product sets: operator
    # cost, the duplicated is_closed pass and closure dominate; peak memory
    "product_rank5": [_product(5, 4, 5, m) for m in (1, 5)],
    # 116 small cells with a warm fundamental-crystal cache: per-cell fixed costs
    "verify_sweep": [["verify", "--n-max", "4", "--m-max", "4"]],
    # the column oracle alone: every (p,q) at ranks 2-5, and p,q <= 4 at rank 6
    "oracle_tensor": [
        _tensor(n, p, q) for n in range(2, 6) for p in range(1, n + 1) for q in range(1, n + 1)
    ] + [_tensor(6, p, q) for p in range(1, 5) for q in range(1, 5)],
}


class BenchError(RuntimeError):
    """The benchmark could not measure (as opposed to the program failing)."""


def op_key(argv: list[str]) -> str:
    return " ".join(argv)


def digest(document: str) -> str:
    return hashlib.sha256(document.encode("utf-8")).hexdigest()


# -- child processes ------------------------------------------------------------


def child_env(root: Path, hash_seed: int) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in DROPPED_ENV}
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = str(hash_seed)
    return env


def _spawn(root: Path, env: dict, args: list[str], job: dict | None, timeout: float) -> dict:
    start = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), *args],
            input=None if job is None else json.dumps(job),
            capture_output=True, text=True, env=env, cwd=root, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"child ran past {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"child exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    report = json.loads(proc.stdout)
    first_probe, last_probe = report["setup_probes_s"]
    # the first probe runs inside the set-up, so it is taken out
    report["setup_wall_s"] = report["setup_end"] - start - first_probe
    report["setup_s"] = rescale(report["setup_wall_s"], [first_probe, last_probe])
    report["elapsed_s"] = time.monotonic() - start
    return report


def setup_only(root: Path, env: dict, timeout: float = 60.0) -> dict:
    """Set-up of an interpreter that imports the CLI and exits."""
    return _spawn(root, env, ["--setup-only"], None, timeout)


def run_pass(root: Path, env: dict, ops: list[list[str]], trace: bool,
             timeout: float = 120.0) -> dict:
    return _spawn(root, env, [], {"ops": ops, "trace": trace}, timeout)


# -- correctness ------------------------------------------------------------------


def reference_failure(argv: list[str], document: str) -> str | None:
    """The document's own cross-checks: every reference must agree."""
    command = argv[0]
    if command == "decompose-product":
        if json.loads(document)["agreement"] is not True:
            return "brute force disagrees with the closed form"
    elif command == "decompose-tensor":
        if json.loads(document)["oracle_agreement"] is not True:
            return "the column oracle disagrees with the tensor rule"
    elif command == "verify":
        *cells, summary = [json.loads(line) for line in document.splitlines()]
        if summary["mismatches"] != 0 or not all(cell["match"] for cell in cells):
            return "a verify cell has brute force != closed form"
    return None


def check_op(argv: list[str], status, document: str, expected: dict) -> str | None:
    """None when the op's exit status and document are the recorded ones,
    else the reason it failed."""
    want = expected.get(op_key(argv))
    if want is None:
        return "no recorded document for this op"
    if status != want["status"]:
        return f"exit status {status!r}, recorded {want['status']}"
    if digest(document) != want["sha256"]:
        return "document differs from the recorded one"
    try:
        return reference_failure(argv, document)
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable document: {exc!r}"


# -- machine facts ------------------------------------------------------------------


def _read(path: Path) -> str | None:
    try:
        return path.read_text()
    except OSError:
        return None


def _loadavg() -> str | None:
    text = _read(Path("/proc/loadavg"))
    return None if text is None else text.strip()


def _cpu_model() -> str | None:
    for line in (_read(Path("/proc/cpuinfo")) or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or None


def git_commit(root: Path) -> str | None:
    head = _read(root / ".git" / "HEAD")
    if head is None or not head.startswith("ref: "):
        return None if head is None else head.strip()
    ref = head[5:].strip()
    loose = _read(root / ".git" / ref)
    if loose is not None:
        return loose.strip()
    for line in (_read(root / ".git" / "packed-refs") or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def _src_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def machine_facts(root: Path, hash_seed: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "platform": platform.platform(),
        "cpu_model": _cpu_model(),
        "loadavg_start": _loadavg(),
        "hash_seed": hash_seed,
        "git_commit": git_commit(root),
        "src_sha256": _src_digest(root),
    }


# -- metrics --------------------------------------------------------------------------


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(traced: list[dict], plain: list[dict]) -> dict[str, float]:
    """Per-layer metrics from the traced passes: counts from the first (they
    repeat exactly), seconds as medians."""
    first = traced[0]["trace"]
    counts = first["counts"]

    def c(name: str) -> int:
        return counts.get(name, 0)

    def med(get) -> float:
        return statistics.median(get(p["trace"]) for p in traced)

    def span_s(*names: str) -> float:
        return med(lambda t: sum(t["span_seconds"].get(n, 0.0) for n in names))

    fc_cache = first["caches"]["products.fundamental_crystal"]
    traced_wall = statistics.median(p["wall_s"] for p in traced)
    plain_wall = statistics.median(p["wall_s"] for p in plain)
    out = {
        "monomials.string_stats.calls": c("monomials.string_stats.calls"),
        "monomials.e.calls": c("monomials.e.calls"),
        "monomials.f.calls": c("monomials.f.calls"),
        "monomials.ops.s": med(lambda t: t["op_seconds"].get("monomials.ops", 0.0)),
        "monomials.ops_per_element": _ratio(
            c("monomials.e.calls") + c("monomials.f.calls"), c("graphs.decompose_set.elements")
        ),
        "monomials.mul.calls": c("monomials.mul.calls"),
        "monomials.m_k_set.calls": c("monomials.m_k_set.calls"),
        "monomials.m_k_set.s": span_s("monomials.m_k_set"),
        "graphs.is_closed.calls": c("graphs.is_closed.calls"),
        "graphs.is_closed.s": span_s("graphs.is_closed"),
        "graphs.generate_closure.calls": c("graphs.generate_closure.calls"),
        "graphs.generate_closure.s": span_s("graphs.generate_closure"),
        "graphs.generate_closure.vertices": c("graphs.generate_closure.vertices"),
        "graphs.generate_closure.edges": c("graphs.generate_closure.edges"),
        "graphs.decompose_set.s": span_s("graphs.decompose_set"),
        "graphs.decompose_set.components": c("graphs.decompose_set.components"),
        "graphs.hw_ratio": _ratio(
            c("graphs.decompose_set.components"), c("graphs.decompose_set.elements")
        ),
        "products.fundamental_crystal.calls": c("products.fundamental_crystal.calls"),
        "products.fundamental_crystal.hit_ratio": _ratio(
            fc_cache["hits"], fc_cache["hits"] + fc_cache["misses"]
        ),
        "products.fundamental_crystal.s": span_s("products.fundamental_crystal"),
        "products.product_set.s": span_s("products.product_set"),
        "products.formed": c("products.formed"),
        "products.distinct": c("products.distinct"),
        "products.distinct_ratio": _ratio(c("products.distinct"), c("products.formed")),
        "products.bruteforce.s": span_s("products.decompose_product_bruteforce"),
        "products.closed_form.s": span_s(
            "products.product_decomposition_closed_form", "products.tensor_decomposition_closed_form"
        ),
        "tableaux.column_crystal.s": span_s("tableaux.column_crystal"),
        "tableaux.column_crystal.columns": c("tableaux.column_crystal.columns"),
        "tableaux.tensor_highest_weights.s": span_s("tableaux.tensor_highest_weights"),
        "tableaux.pairs_scanned": c("tableaux.pairs_scanned"),
        "tableaux.hw_found": c("tableaux.hw_found"),
        "tableaux.column_ops.calls": sum(
            c(f"tableaux.column.{op}.calls") for op in ("e", "f", "epsilon", "phi")
        ),
        "cli.main.calls": c("cli.main.calls"),
        "cli.main.self_s": med(lambda t: t["self_seconds"].get("cli.main", 0.0)),
        "cli.doc_bytes": sum(len(doc.encode("utf-8")) for _, doc in traced[0]["results"]),
        "run.wall_s": plain_wall,
        "run.probe_s": statistics.median(p["probe_s"] for p in plain),
        "trace.wall_s": traced_wall,
        "trace.overhead_s": traced_wall - plain_wall,
    }
    for layer in ("monomials", "graphs", "products", "tableaux"):
        out[f"{layer}.self_s"] = med(lambda t: t["layer_self_seconds"][layer])
    return out


# -- the run ---------------------------------------------------------------------------


def measure(root: Path, workload: str, seed: int, seconds: float, trace: bool,
            expected: dict) -> dict:
    began = time.monotonic()
    hash_seed = seed % 2**32
    env = child_env(root, hash_seed)
    facts = machine_facts(root, hash_seed)
    ops = WORKLOADS[workload]

    setup_only(root, env)  # warm-up: byte-compiles the sources on a fresh checkout
    setups = [setup_only(root, env) for _ in range(SETUP_SAMPLES)]

    attempted = 0
    failures: list[dict] = []
    kinds = (False, True) if trace else (False,)
    passes: list[dict] = []
    longest = 0.0
    deadline = time.monotonic() + seconds
    while True:
        traced = kinds[len(passes) % len(kinds)]
        timeout = HARD_LIMIT_S - (time.monotonic() - began)
        result = run_pass(root, env, ops, traced, timeout=timeout)
        result["traced"] = traced
        for argv, (status, document) in zip(ops, result["results"]):
            attempted += 1
            reason = check_op(argv, status, document, expected)
            if reason is not None:
                failures.append({"op": op_key(argv), "pass": len(passes), "reason": reason})
        passes.append(result)
        longest = max(longest, result["elapsed_s"])
        if len(passes) >= len(kinds) and time.monotonic() + longest > deadline:
            break

    plain = [p for p in passes if not p["traced"]]
    end_to_end = {
        "work_s": statistics.median(p["work_s"] for p in plain),
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "peak_rss_mb": statistics.median(p["maxrss_kb"] / 1024 for p in plain),
        "wall_s": statistics.median(p["wall_s"] for p in plain),
        "setup_wall_s": statistics.median(s["setup_wall_s"] for s in setups),
    }
    traced_passes = [p for p in passes if p["traced"]]
    per_layer = layer_metrics(traced_passes, plain) if traced_passes else {}
    facts["loadavg_end"] = _loadavg()
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "facts": facts,
        "passes": len(plain),
        "traced_passes": len(traced_passes),
        "samples": {
            "work_s": [p["work_s"] for p in plain],
            "wall_s": [p["wall_s"] for p in plain],
            "probe_s": [p["probe_s"] for p in plain],
            "setup_s": [s["setup_s"] for s in setups],
            "setup_wall_s": [s["setup_wall_s"] for s in setups],
            "peak_rss_mb": [p["maxrss_kb"] / 1024 for p in plain],
            "trace.wall_s": [p["wall_s"] for p in traced_passes],
        },
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "counts_repeat": all(p["trace"]["counts"] == traced_passes[0]["trace"]["counts"]
                             for p in traced_passes),
        "spans": traced_passes[0]["trace"]["spans"] if traced_passes else [],
    }


def _metric_specs(root: Path, trace: bool) -> list[dict]:
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    trace = bool(args.trace)

    if not (ROOT / "src" / "cncrystal" / "cli.py").is_file():
        print(f"error: no cncrystal sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        specs = _metric_specs(ROOT, trace)
        expected = json.loads((HERE / "expected.json").read_text())["ops"]
        record = measure(ROOT, args.workload, args.seed, args.seconds, trace, expected)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    values = record["per_layer" if trace else "end_to_end"]
    metrics = {s["name"]: {"value": values[s["name"]], "unit": s["unit"]} for s in specs}
    fail_frac = record["failed"] / record["attempted"]
    out_dir = ROOT / OUT_DIR
    out_dir.mkdir(exist_ok=True)
    out_path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps({**record, "metrics": metrics, "fail_frac": fail_frac}, indent=1))

    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"passes={record['passes']} traced_passes={record['traced_passes']} "
          f"attempted={record['attempted']} failed={record['failed']}"
          + (f" counts_repeat={record['counts_repeat']}" if trace else ""))
    for failure in record["failures"]:
        print(f"FAILED {failure['op']} (pass {failure['pass']}): {failure['reason']}")
    for name, metric in metrics.items():
        print(f"  {name:40s} {metric['value']:>16.6g} {metric['unit']}")
    if not trace:
        for name in ("wall_s", "setup_wall_s"):
            print(f"  {name + ' (raw, not gated)':40s} {record['end_to_end'][name]:>16.6g} s")
    print(f"  {'fail_frac':40s} {fail_frac:>16.6g} ratio")
    print("facts " + json.dumps(record["facts"], sort_keys=True))
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
