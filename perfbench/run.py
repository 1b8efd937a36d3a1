"""polygram benchmark: CLI wall time end to end, per-layer spans from a traced run.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every job is a fresh ``python -m polygram`` process run from the source tree,
so module-level caches start cold as they do for a user.  Load is a closed
loop from one process: jobs run one after another, one child at a time.

With ``--trace 0`` the run repeats passes over the workload's job groups
for S seconds, with a reference job that imports no polygram code between
groups, and reports the end-to-end metrics.  With ``--trace 1`` it
alternates untraced and traced passes (see tracer.py), runs the failure
probes, and reports the per-layer metrics.  Every job's output goes through
the correctness gate (gate.py).  The last stdout line is one JSON object;
a readable summary goes to stderr, and the full record to
``.perfbench/<workload>-seed<N>-trace<T>.json`` under the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import selectors
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from gate import UNCLASSIFIED, Gate, classify_probe
from workloads import DEFAULT_SEED, PROBES, SETUP_JOB, WORKLOADS, Job, groups_for

BENCH_DIR = Path(__file__).resolve().parent
REPO = BENCH_DIR.parent
SRC = REPO / "src"
OUT_DIR = REPO / ".perfbench"

REF_CHECKSUM = b"105260460\n"
JOB_TIMEOUT_S = 120.0

TARGETS = ("alternating", "cor33", "egf", "prop12", "prop41", "thm11", "thm21", "thm22",
           "thm31", "thm32", "thm42", "thm43", "thm44")

LAYERS = ("oracles", "poly", "grammar", "unipoly", "quadratic", "classical", "triangles",
          "gamma", "parser", "report", "verify", "cli")

# Per-layer metric -> (span name, field); fields are calls or self_s.
SPAN_METRICS = {
    "oracles.count_alternating.self_s": ("oracles.count_alternating", "self_s"),
    "oracles.histograms.self_s": ("oracles.histograms", "self_s"),
    "poly.mul.calls": ("poly.mul", "calls"),
    "poly.mul.self_s": ("poly.mul", "self_s"),
    "poly.add.calls": ("poly.add", "calls"),
    "poly.add.self_s": ("poly.add", "self_s"),
    "poly.partial_derivative.self_s": ("poly.partial_derivative", "self_s"),
    "poly.substitute.calls": ("poly.substitute", "calls"),
    "poly.substitute.self_s": ("poly.substitute", "self_s"),
    "grammar.derive.calls": ("grammar.derive", "calls"),
    "grammar.derive.self_s": ("grammar.derive", "self_s"),
    "grammar.expansion_coefficients.self_s": ("grammar.expansion_coefficients", "self_s"),
    "grammar.verify_identity.self_s": ("grammar.verify_identity", "self_s"),
    "unipoly.init.calls": ("unipoly.init", "calls"),
    "unipoly.init.self_s": ("unipoly.init", "self_s"),
    "unipoly.mul.calls": ("unipoly.mul", "calls"),
    "unipoly.mul.self_s": ("unipoly.mul", "self_s"),
    "unipoly.add.calls": ("unipoly.add", "calls"),
    "unipoly.add.self_s": ("unipoly.add", "self_s"),
    "quadratic.ext_mul.calls": ("quadratic.ext_mul", "calls"),
    "quadratic.ext_mul.self_s": ("quadratic.ext_mul", "self_s"),
    "quadratic.root_power.calls": ("quadratic.root_power", "calls"),
    "quadratic.root_power.self_s": ("quadratic.root_power", "self_s"),
    "quadratic.eval_poly.self_s": ("quadratic.eval_poly", "self_s"),
    "classical.recurrence.calls": ("classical.recurrence", "calls"),
    "classical.recurrence.self_s": ("classical.recurrence", "self_s"),
    "classical.series_mul.self_s": ("classical.series_mul", "self_s"),
    "classical.series_invert.self_s": ("classical.series_invert", "self_s"),
    "triangles.row.calls": ("triangles.row", "calls"),
    "triangles.row.self_s": ("triangles.row", "self_s"),
    "triangles.value.calls": ("triangles.value", "calls"),
    "triangles.value.self_s": ("triangles.value", "self_s"),
    "gamma.gamma_to_h.calls": ("gamma.gamma_to_h", "calls"),
    "gamma.gamma_to_h.self_s": ("gamma.gamma_to_h", "self_s"),
    "gamma.h_to_gamma.self_s": ("gamma.h_to_gamma", "self_s"),
    "parser.parse.calls": ("parser.parse", "calls"),
    "parser.parse.self_s": ("parser.parse", "self_s"),
    "cli.main.self_s": ("cli.main", "self_s"),
    **{f"verify.target_s.{t}": (f"verify.target_s.{t}", "total_s") for t in TARGETS},
}

COUNTER_METRICS = ("poly.mul.term_pairs", "poly.mul.terms_out", "grammar.derive.terms_out",
                   "unipoly.mul.coeff_pairs")

PER_LAYER = (*SPAN_METRICS, *COUNTER_METRICS, "classical.recurrence.cache_hit_ratio",
             *(f"layer.{layer}.self_share" for layer in LAYERS),
             "cli.import_s", "cli.stdout_bytes", "verify.checks", "trace.uncovered_s",
             "trace.overhead_s", "probe_unclassified", "failed_share")


END_TO_END_UNITS = {"wall_rel": "ratio", "peak_rss_mb": "MB", "setup_s": "s"}


def metric_unit(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("_s") or name.startswith("verify.target_s."):
        return "s"
    if name.endswith(("_share", "_ratio")):
        return "ratio"
    if name == "cli.stdout_bytes":
        return "bytes"
    return "count"


# ----------------------------------------------------------------------
# running one child process


@dataclass
class Outcome:
    returncode: int
    stdout: bytes
    stderr: bytes
    wall_s: float
    maxrss_kb: int
    side: bytes = b""


def spawn(cmd: list[str], side_channel: bool = False) -> Outcome:
    """Run cmd to completion, draining its output as it arrives.

    With ``side_channel`` a pipe's write end is passed to the child, and its
    descriptor number replaces the ``{fd}`` item of cmd.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    pass_fds: tuple[int, ...] = ()
    side_r = None
    if side_channel:
        side_r, side_w = os.pipe()
        pass_fds = (side_w,)
        cmd = [str(side_w) if c == "{fd}" else c for c in cmd]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, pass_fds=pass_fds, cwd=REPO, env=env)
    if side_channel:
        os.close(pass_fds[0])
    chunks: dict[object, list[bytes]] = {}
    with selectors.DefaultSelector() as sel:
        for f in (proc.stdout, proc.stderr):
            sel.register(f, selectors.EVENT_READ)
            chunks[f] = []
        if side_r is not None:
            sel.register(side_r, selectors.EVENT_READ)
            chunks[side_r] = []
        while sel.get_map():
            left = JOB_TIMEOUT_S - (time.perf_counter() - t0)
            if left <= 0:
                proc.kill()
                left = 1.0
            for key, _ in sel.select(timeout=left):
                data = os.read(key.fd, 1 << 16)
                if data:
                    chunks[key.fileobj].append(data)
                else:
                    sel.unregister(key.fileobj)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    side = b""
    if side_r is not None:
        os.close(side_r)
        side = b"".join(chunks[side_r])
    return Outcome(proc.returncode, b"".join(chunks[proc.stdout]),
                   b"".join(chunks[proc.stderr]), wall, usage.ru_maxrss, side)


def polygram_cmd(job_argv) -> list[str]:
    return [sys.executable, "-m", "polygram", *job_argv]


def traced_cmd(job_argv) -> list[str]:
    return [sys.executable, str(BENCH_DIR / "tracer.py"), "{fd}", "--", *job_argv]


# ----------------------------------------------------------------------
# passes


@dataclass
class Pass:
    wall_s: float = 0.0
    checks: int = 0
    maxrss_kb: int = 0
    stdout_bytes: int = 0
    jobs: list[dict] = field(default_factory=list)

    def add(self, other: "Pass") -> None:
        self.wall_s += other.wall_s
        self.checks += other.checks
        self.maxrss_kb = max(self.maxrss_kb, other.maxrss_kb)
        self.stdout_bytes += other.stdout_bytes
        self.jobs += other.jobs


@dataclass
class Tally:
    """Jobs attempted and failed over a whole run, with the first reasons."""
    attempted: int = 0
    failed: int = 0
    reasons: list[str] = field(default_factory=list)

    def judge(self, gate: Gate, job: Job, out: Outcome) -> bool:
        self.attempted += 1
        problem = gate.problem(job, out.returncode, out.stdout, out.stderr)
        if problem is not None:
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.append(f"{job.id[:120]}: {problem}")
        return problem is None


def run_pass(jobs, gate: Gate, tally: Tally, traced: bool = False) -> Pass:
    p = Pass()
    for job in jobs:
        cmd = traced_cmd(job.argv) if traced else polygram_cmd(job.argv)
        out = spawn(cmd, side_channel=traced)
        ok = tally.judge(gate, job, out)
        p.wall_s += out.wall_s
        p.maxrss_kb = max(p.maxrss_kb, out.maxrss_kb)
        p.stdout_bytes += len(out.stdout)
        if ok and job.kind == "verify":
            p.checks += gate.checks[job.id]
        record = {"job": job.id[:200], "wall_s": out.wall_s, "ok": ok}
        if traced and out.side:
            record["trace"] = json.loads(out.side)
        p.jobs.append(record)
    return p


def reference_job() -> float:
    out = spawn([sys.executable, str(BENCH_DIR / "refjob.py")])
    if out.returncode != 0 or out.stdout != REF_CHECKSUM:
        raise RuntimeError(f"reference job failed: exit {out.returncode}, "
                           f"stdout {out.stdout[:40]!r}")
    return out.wall_s


def setup_job(gate: Gate, tally: Tally) -> float:
    out = spawn(polygram_cmd(SETUP_JOB.argv))
    tally.judge(gate, SETUP_JOB, out)
    return out.wall_s


# ----------------------------------------------------------------------
# statistics


def spread(values) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def high_percentile(values) -> tuple[int, float] | None:
    """Highest whole percentile with at least ten samples above it."""
    n = len(values)
    if n < 11:
        return None
    pct = (100 * (n - 10)) // n
    ordered = sorted(values)
    return pct, ordered[max(0, -(-pct * n // 100) - 1)]


def describe(name: str, values, unit: str) -> str:
    text = f"{name}: median {statistics.median(values):.4f} {unit}, n={len(values)}"
    hi = high_percentile(values)
    if hi is not None:
        text += f", p{hi[0]} {hi[1]:.4f}"
    return text + f", spread {spread(values):.3f}"


# ----------------------------------------------------------------------
# the two kinds of run


def timed_run(groups, seconds: float, gate: Gate, tally: Tally) -> tuple[dict, dict]:
    """Passes over the job groups, with the reference and set-up jobs after each group.

    Each group's time is divided by the mean of the reference runs on either
    side of it, so the ratio follows the machine's speed from second to
    second.  ``wall_rel`` sums the groups' median ratios.
    """
    deadline = time.perf_counter() + seconds
    setups = [setup_job(gate, tally) for _ in range(3)]
    refs = [reference_job()]
    ratios: list[list[float]] = [[] for _ in groups]
    passes: list[Pass] = []
    while True:
        lap = time.perf_counter()
        whole = Pass()
        for g, jobs in enumerate(groups):
            part = run_pass(jobs, gate, tally)
            refs.append(reference_job())
            ratios[g].append(part.wall_s / ((refs[-2] + refs[-1]) / 2))
            setups.append(setup_job(gate, tally))
            whole.add(part)
        passes.append(whole)
        if time.perf_counter() + (time.perf_counter() - lap) > deadline:
            break
    walls = [p.wall_s for p in passes]
    pass_rel = [sum(r[i] for r in ratios) for i in range(len(passes))]
    wall = statistics.median(walls)
    metrics = {
        "wall_rel": sum(statistics.median(r) for r in ratios),
        "peak_rss_mb": max(p.maxrss_kb for p in passes) / 1024,
        "setup_s": statistics.median(setups),
    }
    # Raw times follow the machine's speed drift too closely to gate on;
    # they are kept in the record.
    detail = {
        "wall_s": wall, "checks_per_s": passes[0].checks / wall,
        "pass_wall_s": walls, "pass_rel": pass_rel, "group_rel": ratios,
        "reference_s": refs, "setup_s": setups, "reference_spread": spread(refs),
        "checks_per_pass": passes[0].checks,
        "job_wall_s": {j["job"]: statistics.median(p.jobs[i]["wall_s"] for p in passes)
                       for i, j in enumerate(passes[0].jobs)},
        "summary": [describe("wall_s", walls, "s"), f"checks_per_s: {passes[0].checks / wall:.1f}",
                    describe("pass_rel", pass_rel, "x"),
                    describe("reference_s", refs, "s"), describe("setup_s", setups, "s")],
    }
    return metrics, detail


def _pass_layer_metrics(p: Pass) -> dict[str, float]:
    spans: dict[str, dict[str, float]] = {}
    counters: dict[str, float] = {}
    import_s = uncovered = root = 0.0
    for job in p.jobs:
        trace = job.get("trace")
        if trace is None:
            continue
        for name, row in trace["spans"].items():
            agg = spans.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for k in agg:
                agg[k] += row[k]
        for k, v in trace["counters"].items():
            counters[k] = counters.get(k, 0) + v
        main = trace["spans"].get("cli.main", {}).get("total_s", 0.0)
        import_s += trace["import_s"]
        root += main
        uncovered += job["wall_s"] - trace["import_s"] - trace["bookkeeping_s"] - main
    out = {m: spans.get(span, {}).get(fld, 0) for m, (span, fld) in SPAN_METRICS.items()}
    out.update({m: counters.get(m, 0) for m in COUNTER_METRICS})
    lookups = counters.get("classical.recurrence.lookups", 0)
    out["classical.recurrence.cache_hit_ratio"] = (
        counters.get("classical.recurrence.hits", 0) / lookups if lookups else 0.0)
    for layer in LAYERS:
        own = sum(row["self_s"] for name, row in spans.items()
                  if name.split(".", 1)[0] == layer)
        out[f"layer.{layer}.self_share"] = own / root if root else 0.0
    out["cli.import_s"] = import_s
    out["cli.stdout_bytes"] = p.stdout_bytes
    out["verify.checks"] = p.checks
    out["trace.uncovered_s"] = uncovered
    return out


def run_probes() -> tuple[int, list[dict]]:
    rows = []
    for argv in PROBES:
        out = spawn(polygram_cmd(argv))
        tail = (out.stderr or out.stdout).decode("utf-8", "replace").strip().splitlines()
        rows.append({"probe": " ".join(argv)[:80], "exit": out.returncode,
                     "class": classify_probe(out.returncode, out.stdout, out.stderr),
                     "last_line": tail[-1][:160] if tail else ""})
    return sum(r["class"] in UNCLASSIFIED for r in rows), rows


def traced_run(groups, seconds: float, gate: Gate, tally: Tally) -> tuple[dict, dict]:
    jobs = [job for group in groups for job in group]
    deadline = time.perf_counter() + seconds
    plain: list[Pass] = []
    traced: list[Pass] = []
    while True:
        lap = time.perf_counter()
        plain.append(run_pass(jobs, gate, tally))
        traced.append(run_pass(jobs, gate, tally, traced=True))
        if time.perf_counter() + (time.perf_counter() - lap) > deadline:
            break
    per_pass = [_pass_layer_metrics(p) for p in traced]
    metrics = {m: statistics.median(p[m] for p in per_pass) for m in per_pass[0]}
    metrics["trace.overhead_s"] = (statistics.median(p.wall_s for p in traced)
                                   - statistics.median(p.wall_s for p in plain))
    unclassified, probes = run_probes()
    metrics["probe_unclassified"] = unclassified
    detail = {
        "plain_pass_wall_s": [p.wall_s for p in plain],
        "traced_pass_wall_s": [p.wall_s for p in traced],
        "probes": probes,
        "jobs": traced[0].jobs,
        "summary": [f"{r['class']:8} exit {r['exit']}  {r['probe']}  | {r['last_line']}"
                    for r in probes],
    }
    return metrics, detail


# ----------------------------------------------------------------------
# machine facts


def _steal_ticks() -> int | None:
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_sha() -> str:
    head = REPO / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (REPO / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def machine_facts() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": sorted(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "git_sha": _git_sha(),
        "loadavg": os.getloadavg(),
        "steal_ticks": _steal_ticks(),
    }


# ----------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def load_pins(seed: int) -> dict:
    pins = json.loads((BENCH_DIR / "pins.json").read_text())
    if seed != DEFAULT_SEED:
        # Derive digests hold for the default seed only; other seeds are
        # checked against the reference derivation and for repeatability.
        pins["sha256"] = {k: v for k, v in pins["sha256"].items()
                          if not k.startswith("derive ")}
    return pins


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "polygram" / "__main__.py").is_file():
        print(f"error: no polygram sources under {SRC}", file=sys.stderr)
        return 2
    gate = Gate(load_pins(args.seed))
    groups = groups_for(args.workload, args.seed)
    facts_before = machine_facts()
    # One CPU for this process and every child: the reference job and the
    # jobs it is compared with then see the same core and its neighbours.
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    facts_before["pinned_cpu"] = cpu
    tally = Tally()
    # Untimed: writes the bytecode cache so every timed job finds it.
    setup_job(gate, tally)
    if args.trace:
        metrics, detail = traced_run(groups, args.seconds, gate, tally)
        metrics["failed_share"] = tally.failed / tally.attempted
    else:
        metrics, detail = timed_run(groups, args.seconds, gate, tally)
    facts_after = machine_facts()
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": facts_before,
        "loadavg_after": facts_after["loadavg"], "steal_ticks_after": facts_after["steal_ticks"],
        "attempted": tally.attempted, "failed": tally.failed, "failures": tally.reasons,
        "metrics": metrics, "detail": detail,
    }
    OUT_DIR.mkdir(exist_ok=True)
    out_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1))

    print(f"polygram benchmark: {args.workload}, seed {args.seed}, trace {args.trace}; "
          f"python {facts_before['python']}, {facts_before['nproc']} cpus, "
          f"{facts_before['cpu_model']}, sha {facts_before['git_sha'][:12]}", file=sys.stderr)
    print(f"load {facts_before['loadavg'][0]:.2f} -> {facts_after['loadavg'][0]:.2f}, "
          f"steal ticks {facts_before['steal_ticks']} -> {facts_after['steal_ticks']}",
          file=sys.stderr)
    for line in detail["summary"]:
        print("  " + line, file=sys.stderr)
    for reason in tally.reasons:
        print(f"  FAILED {reason}", file=sys.stderr)
    print(f"  record: {out_path}", file=sys.stderr)

    if set(metrics) != set(PER_LAYER if args.trace else END_TO_END_UNITS):
        raise RuntimeError(f"metric set differs from the declared one: {sorted(metrics)}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": metric_unit(name)}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
