#!/usr/bin/env python3
"""Build and run the dataplane benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the root of the repository. The benchmark is a cargo package of
its own (perfbench/Cargo.toml) built against the repository's crates into
$CARGO_TARGET_DIR (default: .bench_build). Build output goes to standard
error; the last line of standard output is the benchmark's JSON result.
A traced run (--trace 1) also writes its spans to
<target dir>/perfbench-traces/<workload>-seed<n>.tsv.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MANIFEST = os.path.join(HERE, "Cargo.toml")
SPEC = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")


def target_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir(), CARGO_NET_OFFLINE="true")
    cmd = ["cargo", "build", "--release", "--offline", "--manifest-path", MANIFEST]
    if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
        sys.exit("perfbench: build failed")
    return os.path.join(target_dir(), "release", "perfbench")


def run(binary, args):
    """Run the binary; return (exit code, parsed stdout JSON lines). Its
    report is passed on only when the run fails."""
    p = subprocess.run([binary] + args, capture_output=True, text=True)
    try:
        lines = [json.loads(line) for line in p.stdout.strip().splitlines()]
    except json.JSONDecodeError:
        lines = []
    if p.returncode != 0:
        sys.stderr.write(p.stderr)
    return p.returncode, lines


def selftest(binary):
    """Each workload at a tiny size: every named metric is printed with its
    unit, every output check passes, and the modeled metrics of two runs
    with the same seed are identical."""
    with open(SPEC) as f:
        spec = json.load(f)
    failures = []
    for w in spec["workloads"]:
        name = w["name"]
        for trace, metrics in (("0", spec["end_to_end"]), ("1", spec["per_layer"])):
            runs = []
            for _ in range(2):
                code, lines = run(binary, ["--workload", name, "--seed", "7", "--seconds", "0",
                                           "--trace", trace, "--tiny"])
                res = lines[-1] if len(lines) == 2 else None
                if code != 0 or res is None or not res["correct"]:
                    failures.append(f"{name} trace {trace}: exit {code}, result {res}")
                    break
                runs.append((lines[0]["clocks"], res["metrics"]))
            if len(runs) < 2:
                continue
            (clocks, first), (_, second) = runs
            for m in metrics:
                got = first.get(m["name"])
                if got is None or got.get("unit") != m["unit"]:
                    failures.append(f"{name}: metric {m['name']} missing or not in {m['unit']}")
                elif clocks[m["name"]] != "wall" and m["name"] != "peak_rss_mb" \
                        and got != second[m["name"]]:
                    failures.append(f"{name}: {m['name']} ({clocks[m['name']]}) differs across "
                                    f"runs: {got['value']} vs {second[m['name']]['value']}")
            extra = set(first) - {m["name"] for m in metrics}
            if extra:
                failures.append(f"{name} trace {trace}: unlisted metrics {sorted(extra)}")
        print(f"selftest {name}: done", file=sys.stderr)
    for f in failures:
        print("selftest FAIL:", f, file=sys.stderr)
    print(json.dumps({"selftest": "fail" if failures else "ok", "failures": len(failures)}))
    return 1 if failures else 0


def main():
    argv = sys.argv[1:]
    binary = build()
    if argv == ["--selftest"]:
        sys.exit(selftest(binary))
    args = list(argv)
    if "--trace" in args and args[args.index("--trace") + 1] == "1":
        workload = args[args.index("--workload") + 1] if "--workload" in args else "unknown"
        seed = args[args.index("--seed") + 1] if "--seed" in args else "1"
        out = os.path.join(target_dir(), "perfbench-traces", f"{workload}-seed{seed}.tsv")
        args += ["--trace-out", out]
    sys.stdout.flush()
    os.execv(binary, [binary] + args)


if __name__ == "__main__":
    main()
