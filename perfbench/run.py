#!/usr/bin/env python3
"""LoCEC benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Builds the driver (perfbench/build.sbt, which compiles the program's sources
from src/main/scala) when a source changed since the last build, then runs it
with plain `java`, so sbt's start-up is not part of any run. Build outputs and
Spark's scratch files stay under .bench_build/ in the repository root. The
last line of stdout is the result object; see perfbench/README.md.
"""
import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
BUILD = os.path.join(ROOT, ".bench_build")
CLASSPATH = os.path.join(BUILD, "classpath.txt")
STAMP = os.path.join(BUILD, "stamp.txt")
PROGRAM_SOURCES = os.path.join(ROOT, "src", "main", "scala")

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
DRIVER_HEAP = "3g"

# Spark on JDK 17 needs these packages opened (the set build.sbt passes to the
# program's own forked JVMs).
ADD_OPENS = [
    "java.base/java.lang", "java.base/java.lang.invoke", "java.base/java.lang.reflect",
    "java.base/java.io", "java.base/java.net", "java.base/java.nio",
    "java.base/java.util", "java.base/java.util.concurrent",
    "java.base/java.util.concurrent.atomic", "java.base/jdk.internal.ref",
    "java.base/sun.nio.ch", "java.base/sun.nio.cs", "java.base/sun.security.action",
    "java.base/sun.util.calendar", "java.security.jgss/sun.security.krb5",
]


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def spark_home():
    home = os.environ.get("SPARK_HOME")
    if not home:
        submit = shutil.which("spark-submit")
        if submit:
            home = os.path.dirname(os.path.dirname(os.path.realpath(submit)))
    if not home or not os.path.isdir(os.path.join(home, "jars")):
        fail("no Spark distribution found (set SPARK_HOME)")
    return home


def source_stamp():
    """Hash of every file the build reads, so that a changed source rebuilds."""
    h = hashlib.sha256()
    for top in [PROGRAM_SOURCES, os.path.join(BENCH, "src"), os.path.join(BENCH, "build.sbt"),
                os.path.join(BENCH, "project", "build.properties")]:
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(top) for f in fs)
        for p in paths:
            h.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def run_child(cmd, timeout, env, cwd, stdout=None):
    """Run cmd in its own process group and wait for it; on timeout or
    interruption kill the whole group first, so nothing outlives the run."""
    proc = subprocess.Popen(cmd, env=env, cwd=cwd, stdout=stdout, start_new_session=True)
    try:
        return proc.wait(timeout=timeout)
    except BaseException as e:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        if isinstance(e, subprocess.TimeoutExpired):
            fail(f"{cmd[0]} timed out after {timeout} s")
        raise


def build(env):
    stamp = source_stamp()
    if os.path.exists(CLASSPATH) and os.path.exists(STAMP):
        with open(STAMP) as f:
            if f.read() == stamp:
                return
    os.makedirs(BUILD, exist_ok=True)
    if "SBT_OPTS" not in env:
        # Build offline, from the machine's configured repositories if any.
        opts = ["-Dsbt.offline=true"]
        repos = os.path.expanduser("~/.sbt/repositories")
        if os.path.exists(repos):
            opts += ["-Dsbt.override.build.repos=true", f"-Dsbt.repository.config={repos}"]
        env = dict(env, SBT_OPTS=" ".join(opts))
    cmd = ["sbt", "--batch", "-J-XX:-UsePerfData", "-Dsbt.log.noformat=true",
           "-Dsbt.server.autostart=false", "compile", f"writeClasspath {CLASSPATH}"]
    print("perfbench: building the driver with sbt", file=sys.stderr)
    # sbt's output goes to stderr: stdout is reserved for the result.
    code = run_child(cmd, BUILD_TIMEOUT_S, env, BENCH, stdout=sys.stderr)
    if code != 0:
        fail(f"build failed (sbt exit code {code})")
    with open(STAMP, "w") as f:
        f.write(stamp)


def run_driver(env, workload, seed, seconds, trace):
    """Run one measurement; returns the driver's stdout lines."""
    with open(CLASSPATH) as f:
        cp = f.read().strip()
    tmp = os.path.join(BUILD, "tmp")
    local = os.path.join(BUILD, "spark-local")
    os.makedirs(tmp, exist_ok=True)
    os.makedirs(local, exist_ok=True)
    # -XX:-UsePerfData: no hsperfdata file in the system temp directory.
    cmd = (["java", f"-Xms{DRIVER_HEAP}", f"-Xmx{DRIVER_HEAP}", "-XX:-UsePerfData",
            f"-Djava.io.tmpdir={tmp}"]
           + [f"--add-opens={p}=ALL-UNNAMED" for p in ADD_OPENS]
           + ["-XX:+IgnoreUnrecognizedVMOptions", "-cp", cp, "repro.perfbench.Main",
              "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
              "--trace", str(trace), "--local-dir", local])
    out_path = os.path.join(tmp, f"stdout-{os.getpid()}.txt")
    with open(out_path, "w+") as out:
        code = run_child(cmd, RUN_TIMEOUT_S, env, ROOT, stdout=out)
        out.seek(0)
        lines = out.read().splitlines()
    os.remove(out_path)
    if code != 0:
        sys.stderr.write("\n".join(lines) + "\n")
        fail(f"driver failed (exit code {code})")
    return lines


def result_of(lines):
    res = json.loads(lines[-1])
    if sorted(res) != ["attempted", "correct", "failed", "metrics"]:
        fail(f"malformed result line: {lines[-1]}")
    return res


def selftest(env):
    """Checks the harness on a 150-user network: every metric of
    BENCHMARK.json is printed by name with its unit, and the driver's own
    checks hold (traced and untraced predictions identical, repeated
    iterations re-run Phase I with equal task counts, outputs valid)."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for trace, section in [(0, "end_to_end"), (1, "per_layer")]:
        lines = run_driver(env, "selftest", 7, 1, trace)
        res = result_of(lines)
        report = json.loads(lines[-2])["report"]
        want = {m["name"]: m["unit"] for m in spec[section]}
        got = {k: v["unit"] for k, v in res["metrics"].items()}
        if want != got:
            problems.append(f"trace {trace}: metrics differ from BENCHMARK.json {section}: "
                            f"missing {sorted(set(want) - set(got))}, "
                            f"extra {sorted(set(got) - set(want))}, "
                            f"unit mismatch {sorted(k for k in want if k in got and want[k] != got[k])}")
        if not res["correct"]:
            problems.append(f"trace {trace}: checks failed: {report['checks']}")
        print(f"trace {trace}: checks {report['checks']}")
    if problems:
        fail("selftest FAILED\n  " + "\n  ".join(problems))
    print("selftest ok")


def main():
    # A terminated benchmark raises SystemExit, so run_child kills its child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and not args.workload:
        ap.error("--workload is required")
    if not os.path.isdir(PROGRAM_SOURCES):
        fail(f"the program's sources ({os.path.relpath(PROGRAM_SOURCES, ROOT)}) are missing")

    env = dict(os.environ, SPARK_HOME=spark_home())
    env.setdefault("COURSIER_MODE", "offline")
    build(env)
    if args.selftest:
        selftest(env)
        return
    lines = run_driver(env, args.workload, args.seed, args.seconds, args.trace)
    result_of(lines)
    sys.stdout.write("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
