"""Cold-process measurement: spawn one slcob process, time it from spawn to
exit, read its own peak RSS (through perfbench/launch.py), and keep every
pass's files apart.

All files live under `.bench_build/` in the checkout and are removed when
the run ends.  The run first builds a bytecode cache for the package and
the standard library modules it imports, as an installed package has; the
measured processes read it but may not write to it, so no process leaves
anything a later one reuses.
"""

import hashlib
import os
import platform
import resource
import shutil
import signal
import subprocess
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PERFBENCH = os.path.join(ROOT, "perfbench")
LAUNCH = os.path.join(PERFBENCH, "launch.py")

# Modules the traced child imports after `import slcob.cli`; compiled in
# the bytecode cache too, so tracing does not pay for their compilation.
WARM_IMPORTS = ("inspect", "json")


class Proc:
    """The outcome of one child process."""

    def __init__(self, rc, wall_s, rss_mb, stdout, stderr, started_ns):
        self.rc = rc
        self.wall_s = wall_s
        self.rss_mb = rss_mb
        self.stdout = stdout
        self.stderr = stderr
        self.started_ns = started_ns


def hash_seed(seed):
    """The PYTHONHASHSEED of a run's children, drawn from the run's seed, so
    that the runs over many seeds also cover the string-hash orders."""
    return seed % 2**32


class Sandbox:
    """A run's private directory, child environment and deadline."""

    def __init__(self, deadline_s, seed):
        self.deadline = time.monotonic() + deadline_s
        base = os.path.join(ROOT, ".bench_build")
        self._made_base = not os.path.isdir(base)
        self.work = os.path.join(base, "perfbench-%d" % os.getpid())
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        self._count = 0
        env = {k: v for k, v in os.environ.items()
               if not k.startswith("PYTHON")}
        env.update(PYTHONPATH=SRC, PYTHONHASHSEED=str(hash_seed(seed)),
                   PYTHONNOUSERSITE="1",
                   PYTHONPYCACHEPREFIX=os.path.join(self.work, "pycache"))
        self.env = dict(env, PYTHONDONTWRITEBYTECODE="1")
        warm = "import slcob, pkgutil, importlib, %s\n" \
               "for m in pkgutil.iter_modules(slcob.__path__):\n" \
               "    importlib.import_module('slcob.' + m.name)\n" \
               % ", ".join(WARM_IMPORTS)
        subprocess.run([sys.executable, "-c", warm], env=env, cwd=self.work,
                       check=True, stdin=subprocess.DEVNULL,
                       timeout=self.remaining())

    def remaining(self):
        return max(self.deadline - time.monotonic(), 1.0)

    def expired(self):
        return time.monotonic() >= self.deadline

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)
        if self._made_base:
            try:
                os.rmdir(os.path.dirname(self.work))
            except OSError:
                pass

    def spawn(self, args):
        """Run `python ARGS` in a fresh empty directory and wait for it."""
        self._count += 1
        tag = "p%d" % self._count
        cwd = os.path.join(self.work, tag)
        os.makedirs(cwd)
        out_path = os.path.join(self.work, tag + ".out")
        err_path = os.path.join(self.work, tag + ".err")
        report = os.path.join(self.work, tag + ".report")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.monotonic_ns()
            proc = subprocess.Popen(
                [sys.executable, "-I", "-S", LAUNCH, report, sys.executable]
                + list(args), cwd=cwd, env=self.env, stdin=subprocess.DEVNULL,
                stdout=out, stderr=err, start_new_session=True)
            try:
                rc = _wait(proc, self.remaining())
            except BaseException:
                _kill(proc)
                proc.wait()
                raise
            end = time.monotonic_ns()
        rss_kb = 0
        try:
            with open(report) as fh:
                start, end, rss_kb, rc = (int(x) for x in fh.read().split())
            os.remove(report)
        except (OSError, ValueError):
            pass    # the launcher was killed: keep its exit code
        with open(out_path, encoding="utf-8", errors="replace") as fh:
            stdout = fh.read()
        with open(err_path, encoding="utf-8", errors="replace") as fh:
            stderr = fh.read()
        shutil.rmtree(cwd)
        os.remove(out_path)
        os.remove(err_path)
        return Proc(rc, (end - start) / 1e9, rss_kb / 1024.0, stdout, stderr,
                    start)

    def slcob(self, argv):
        return self.spawn(["-m", "slcob.cli"] + list(argv))

    def traced(self, mode, argv):
        """Run a command under the tracer; returns (Proc, trace path)."""
        self._count += 1
        path = os.path.join(self.work, "trace-%d.json" % self._count)
        proc = self.spawn([os.path.join(PERFBENCH, "tracer.py"), mode, path]
                          + list(argv))
        return proc, path


def _kill(proc):
    """Kill the launcher and the command it started: they share a process
    group of their own."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _wait(proc, timeout):
    """Wait for the launcher; kill it and its command if they outlive
    `timeout`."""
    done = threading.Event()

    def kill():
        if not done.is_set():
            _kill(proc)

    timer = threading.Timer(timeout, kill)
    timer.start()
    try:
        return proc.wait()
    finally:
        done.set()
        timer.cancel()
        timer.join()


def source_digest():
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "slcob")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode() + b"\0")
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def own_peak_rss_mb():
    """This process's peak RSS, recorded to show that the children's
    figures need launch.py: without it they could not read below this."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_meta(seed):
    return {"commit": commit(), "source_sha256": source_digest(),
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "machine": platform.machine(), "seed": seed,
            "python_hash_seed": hash_seed(seed),
            "harness_peak_rss_mb": own_peak_rss_mb()}
