#!/usr/bin/env python3
"""Build file of the benchmark: compiles the program and the benchmark.

The program's sources (`src/main/scala`) and the benchmark's own
(`perfbench/src`) are compiled together with the Scala compiler that ships
in Spark's `jars/` directory, into `.bench_build/perfbench/classes`. A
digest of the sources and of the Spark jar list is stored next to the
classes; a build whose digest matches is reused.

    python3 perfbench/build.py            # from the repository root
"""
import hashlib
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


class BuildError(Exception):
    pass


def spark_jars():
    """The Spark distribution's jars directory: $SPARK_HOME/jars, else the
    one next to `spark-submit` on the PATH."""
    candidates = []
    if os.environ.get("SPARK_HOME"):
        candidates.append(os.path.join(os.environ["SPARK_HOME"], "jars"))
    submit = shutil.which("spark-submit")
    if submit:
        candidates.append(os.path.join(os.path.dirname(os.path.dirname(os.path.realpath(submit))), "jars"))
    for c in candidates:
        if os.path.isdir(c) and any(f.startswith("scala-compiler") for f in os.listdir(c)):
            return c
    raise BuildError("no Spark jars directory with a Scala compiler: set SPARK_HOME")


def scala_sources(base):
    out = []
    for d, _, files in os.walk(base):
        out += [os.path.join(d, f) for f in files if f.endswith(".scala")]
    return sorted(out)


def sources(root):
    program = scala_sources(os.path.join(root, "src", "main", "scala"))
    if not program:
        raise BuildError("program sources src/main/scala not found under %s" % root)
    return program + scala_sources(os.path.join(BENCH_DIR, "src"))


def digest(root, files, jars):
    h = hashlib.sha256()
    for f in files:
        h.update(os.path.relpath(f, root).encode() + b"\0")
        with open(f, "rb") as fh:
            h.update(fh.read())
    h.update("\n".join(sorted(os.listdir(jars))).encode())
    return h.hexdigest()


def build(root):
    """Compile if needed; returns (classes dir, Spark jars dir, source digest)."""
    jars = spark_jars()
    files = sources(root)
    out = os.path.join(root, ".bench_build", "perfbench")
    classes = os.path.join(out, "classes")
    stamp = os.path.join(out, "classes.sha256")
    want = digest(root, files, jars)
    if os.path.isdir(classes) and os.path.exists(stamp) and open(stamp).read() == want:
        return classes, jars, want
    tmp = classes + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    cmd = ["java", "-Xss8m", "-Xmx1g", "-XX:-UsePerfData", "-cp", os.path.join(jars, "*"), "scala.tools.nsc.Main",
           "-usejavacp", "-nowarn", "-d", tmp] + files
    r = subprocess.run(cmd, cwd=root, stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0:
        raise BuildError("scalac failed with exit code %d" % r.returncode)
    shutil.rmtree(classes, ignore_errors=True)
    os.rename(tmp, classes)
    with open(stamp, "w") as fh:
        fh.write(want)
    return classes, jars, want


if __name__ == "__main__":
    try:
        print(build(os.getcwd())[0])
    except BuildError as e:
        sys.exit("build: %s" % e)
