#!/usr/bin/env python3
"""Run one workload of the IMIN benchmark.

    python3 perfbench/run.py --workload vote-wc --seed 1 --seconds 20 --trace 0

Run it from the repository root. It builds the program and the benchmark
(see build.py), runs the workload in one JVM with Spark in `local[N]` mode
(N = the CPUs this process may use), and prints two lines: an `info` object
with the run's settings and raw samples, then the result object
`{"correct", "attempted", "failed", "metrics"}`. `--trace 0` reports the
end-to-end metrics of BENCHMARK.json, `--trace 1` the per-layer ones. Both
lines are also written to `.bench_build/perfbench/results/`. `--tiny`
shrinks the workload for the self-test.
"""
import argparse
import json
import os
import signal
import subprocess
import sys

sys.dont_write_bytecode = True  # keep the source tree free of build output
import build  # noqa: E402

JVM_TIMEOUT_S = 165
HEAP = "2g"
# The --add-opens set spark-submit adds on JDK 17+ (as in build.sbt).
OPENS = ["java.base/" + p for p in (
    "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net", "java.nio",
    "java.util", "java.util.concurrent", "java.util.concurrent.atomic", "jdk.internal.ref",
    "sun.nio.ch", "sun.nio.cs", "sun.security.action", "sun.util.calendar")]


def git_commit(root):
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True,
                       env=dict(os.environ, GIT_DIR=os.path.join(root, ".git")))
    return r.stdout.strip() or None


def jvm_command(root, classes, jars, args, cores):
    work = os.path.join(root, ".bench_build", "perfbench")
    tmp = os.path.join(work, "tmp")
    os.makedirs(tmp, exist_ok=True)
    cmd = ["java", "-Xms" + HEAP, "-Xmx" + HEAP, "-Xss8m", "-XX:-UsePerfData",
           "-Djava.io.tmpdir=" + tmp,
           "-Dlog4j2.configurationFile=" + os.path.join(build.BENCH_DIR, "log4j2.properties"),
           "-Dspark.ui.enabled=false",
           "-Dspark.driver.host=127.0.0.1",
           "-Dspark.driver.bindAddress=127.0.0.1",
           "-Dspark.local.dir=" + os.path.join(work, "spark-local"),
           "-Dspark.sql.warehouse.dir=" + os.path.join(work, "warehouse"),
           "-Djdk.reflect.useDirectMethodHandle=false"]
    cmd += ["--add-opens=%s=ALL-UNNAMED" % p for p in OPENS]
    cmd += ["-cp", classes + os.pathsep + os.path.join(jars, "*"), "perfbench.Main",
            "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--cores", str(cores)]
    return cmd + (["--tiny"] if args.tiny else [])


def run_jvm(cmd, root):
    """Run the JVM in its own process group; kill the group on timeout."""
    # Spark prefers SPARK_LOCAL_DIRS over spark.local.dir; keep both in the checkout.
    env = dict(os.environ, SPARK_LOCAL_DIRS=os.path.join(root, ".bench_build", "perfbench", "spark-local"))
    p = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                         start_new_session=True)
    try:
        out, _ = p.communicate(timeout=JVM_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.wait()
        sys.exit("run: JVM exceeded %d s" % JVM_TIMEOUT_S)
    finally:
        if p.poll() is None:
            os.killpg(p.pid, signal.SIGKILL)
            p.wait()
    return p.returncode, out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args()

    root = os.getcwd()
    try:
        classes, jars, source_digest = build.build(root)
    except build.BuildError as e:
        sys.exit("run: build failed: %s" % e)

    cores = len(os.sched_getaffinity(0))
    code, out = run_jvm(jvm_command(root, classes, jars, args, cores), root)
    lines = [l for l in out.splitlines() if l.strip()]
    if code != 0 or len(lines) < 2:
        sys.stderr.write(out)
        sys.exit("run: JVM exited with code %d" % code)
    info = json.loads(lines[-2])["info"]
    result = json.loads(lines[-1])
    info.update(nproc=cores, xmx=HEAP, git_commit=git_commit(root), source_sha256=source_digest)

    results = os.path.join(root, ".bench_build", "perfbench", "results")
    os.makedirs(results, exist_ok=True)
    name = "%s_seed%d_trace%d%s.json" % (args.workload, args.seed, args.trace, "_tiny" if args.tiny else "")
    with open(os.path.join(results, name), "w") as fh:
        json.dump({"info": info, "result": result}, fh, indent=1)
    print(json.dumps({"info": info}))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
