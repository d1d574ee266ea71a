"""Tests of the benchmark itself, on smoke-sized workloads (truncation 6).

    python3 -m pytest perfbench        or        python3 -m unittest discover perfbench
"""

import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import compare  # noqa: E402
import harness  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402

SMOKE = 6
RUN_PY = os.path.join(harness.PERFBENCH, "run.py")


def bench(*args, cwd=harness.ROOT, script=RUN_PY):
    proc = subprocess.run([sys.executable, script] + list(args), cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    return proc.returncode, proc.stdout, proc.stderr


def last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


class EndToEnd(unittest.TestCase):
    def test_every_workload_reports_every_end_to_end_metric(self):
        names = set(run.metric_units("end_to_end"))
        for workload in wl.WORKLOADS:
            rc, out, err = bench("--workload", workload, "--seed", "3",
                                 "--seconds", "1", "--trace", "0",
                                 "--truncation", str(SMOKE))
            self.assertEqual(rc, 0, err)
            result = last_json(out)
            self.assertTrue(result["correct"], err)
            self.assertEqual(result["failed"], 0)
            self.assertGreater(result["attempted"], 0)
            self.assertEqual(set(result["metrics"]), names)
            for name, m in result["metrics"].items():
                self.assertGreater(m["value"], 0, name)

    def test_traced_run_reports_every_per_layer_metric(self):
        rc, out, err = bench("--workload", "cf-cold-t12", "--seed", "1",
                             "--seconds", "1", "--trace", "1",
                             "--truncation", str(SMOKE))
        self.assertEqual(rc, 0, err)
        metrics = last_json(out)["metrics"]
        self.assertEqual(set(metrics), set(run.metric_units("per_layer")))
        self.assertEqual(metrics["error_rate"]["value"], 0)
        for name in ("intmat.kernel_calls", "conner_floyd.opmat_bits",
                     "conner_floyd.w_lattice_bits", "mu.basis_bits",
                     "bpoly.mul_calls", "symfun.m_to_e_s", "intmat.kernel_s"):
            self.assertGreater(metrics[name]["value"], 0, name)
        self.assertIn("unaccounted", err)

    def test_refuses_to_run_without_the_program(self):
        base = os.path.join(harness.ROOT, ".bench_build")
        os.makedirs(base, exist_ok=True)
        bare = tempfile.mkdtemp(dir=base)
        try:
            shutil.copy(run.BENCHMARK_JSON, bare)
            shutil.copytree(harness.PERFBENCH, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            rc, out, _ = bench("--workload", "cli-mix", "--seed", "1",
                               "--seconds", "1", "--trace", "0", cwd=bare,
                               script=os.path.join("perfbench", "run.py"))
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(rc, 0)
        self.assertNotIn("{", out)


class Isolation(unittest.TestCase):
    def test_children_hash_seed_follows_the_run_seed(self):
        box = harness.Sandbox(60, 2**32 + 7)
        try:
            proc = box.spawn(["-c", "import os; "
                              "print(os.environ['PYTHONHASHSEED'])"])
        finally:
            box.close()
        self.assertEqual(proc.stdout.strip(), "7")
        meta = harness.run_meta(2**32 + 7)
        self.assertEqual(meta["python_hash_seed"], 7)
        self.assertGreater(meta["harness_peak_rss_mb"], 0)

    def test_peak_rss_is_the_childs_own(self):
        box = harness.Sandbox(60, 1)
        try:
            proc = box.spawn(["-I", "-S", "-c", "pass"])
        finally:
            box.close()
        self.assertEqual(proc.rc, 0)
        self.assertGreater(proc.rss_mb, 0)
        self.assertLess(proc.rss_mb, harness.own_peak_rss_mb())

    def test_command_past_the_deadline_is_killed(self):
        box = harness.Sandbox(60, 1)
        try:
            box.deadline = time.monotonic()
            proc = box.spawn(["-c", "import time; time.sleep(60)"])
        finally:
            box.close()
        self.assertEqual(proc.rc, -signal.SIGKILL)
        self.assertLess(proc.wall_s, 30)


class Tracer(unittest.TestCase):
    def test_functions_are_wrapped_at_their_import_sites(self):
        code = ("import sys; sys.path.insert(0, %r); import tracer; "
                "import slcob.cli, slcob.conner_floyd as cf, slcob.intmat as im; "
                "tracer.Tracer().install('layers'); "
                "assert cf.kernel_basis is im.kernel_basis; "
                "assert cf.kernel_basis.__wrapped__.__module__ == 'slcob.intmat'; "
                "assert hasattr(cf.ConnerFloyd.w_lattice, '__wrapped__'); "
                "assert not hasattr(im.IntMatrix.__mul__, '__wrapped__')"
                % harness.PERFBENCH)
        env = dict(os.environ, PYTHONPATH=harness.SRC)
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=60)
        self.assertEqual(proc.returncode, 0, proc.stderr)


class Gates(unittest.TestCase):
    def test_wrong_expected_answer_raises_error_rate(self):
        expected = wl.load_expected()
        victim = wl.cli_mix_commands(5, SMOKE)[0]
        expected[victim.key] = "a deliberately wrong answer"
        record = run.run_one("cli-mix", 5, 1, 1, SMOKE, expected=expected)
        self.assertFalse(record["correct"])
        # The command runs untraced, traced and untraced again, and once
        # more in the counting pass.
        self.assertEqual(record["failed"], 4)
        self.assertEqual(record["metrics"]["error_rate"]["value"],
                         4 / record["attempted"])

    def test_wrong_homology_pattern_fails_that_degree(self):
        rows = [dict(wl.expected_homology_row(n), n=n) for n in range(6)]
        out = json.dumps(rows)
        self.assertEqual(wl.gate_cf_homology(0, out, 6), (6, 0, []))

        def wrong(n):
            row = wl.expected_homology_row(n)
            if n == 4:
                row["rank_Z"] += 1
            return row

        attempted, failed, _ = wl.gate_cf_homology(0, out, 6, wrong)
        self.assertEqual((attempted, failed), (6, 1))
        self.assertEqual(wl.gate_cf_homology(1, out, 6)[:2], (6, 6))

    def test_leibniz_gate(self):
        pairs = wl.wall_pairs(12)
        self.assertEqual(pairs, 871)
        good = ("PASS twisted (871 Wall pairs)\nPASS product (871 Wall pairs)\n"
                "2 checks, 0 failures\n")
        self.assertEqual(wl.gate_leibniz(0, good, 12), (2, 0, []))
        bad = good.replace("PASS product", "FAIL product").replace(
            "0 failures", "1 failures")
        self.assertEqual(wl.gate_leibniz(0, bad, 12)[:2], (2, 1))
        self.assertEqual(wl.gate_leibniz(3, bad, 12)[:2], (2, 2))
        self.assertEqual(wl.gate_leibniz(0, good, 11)[:2], (2, 2))

    def test_exit_code_and_missing_reference_fail(self):
        cmd = wl.light_probe_commands()[0]
        expected = wl.load_expected()
        self.assertEqual(wl.gate_command(cmd, 2, "", expected)[:2], (1, 1))
        self.assertEqual(wl.gate_command(cmd, 0, "[]", {})[:2], (1, 1))


class Seeds(unittest.TestCase):
    def test_same_seed_same_commands(self):
        for truncation in (SMOKE, wl.TRUNCATION):
            a = [c.argv for c in wl.cli_mix_commands(11, truncation)]
            b = [c.argv for c in wl.cli_mix_commands(11, truncation)]
            self.assertEqual(a, b)

    def test_seed_changes_parameters_not_counts(self):
        lists = [wl.cli_mix_commands(seed) for seed in range(1, 41)]
        for cmds in lists:
            self.assertEqual(sum(not c.heavy for c in cmds), 8)
            self.assertEqual(sum(c.heavy for c in cmds), 3)
            self.assertEqual(sorted(c.kind for c in cmds),
                             sorted(wl.LIGHT_KINDS + wl.HEAVY_KINDS))
        self.assertGreater(len({tuple(c.key for c in cmds) for cmds in lists}),
                           30)

    def test_every_command_has_a_reference_answer(self):
        expected = wl.load_expected()
        for seed in range(1, 301):
            for truncation in (SMOKE, wl.TRUNCATION):
                for cmd in wl.cli_mix_commands(seed, truncation):
                    self.assertIn(cmd.key, expected)
        for cmd in wl.light_probe_commands():
            self.assertIn(cmd.key, expected)

    def test_heavy_commands_stay_off_the_top_kernel(self):
        for seed in range(1, 301):
            for cmd in wl.cli_mix_commands(seed):
                if cmd.kind == "charnum":
                    ambient = int(cmd.argv[cmd.argv.index("--ambient") + 1])
                    self.assertLessEqual(ambient - 1, 5)


class Compare(unittest.TestCase):
    def write(self, path, values):
        runs = [{"workload": "w", "trace": 0, "metrics": {
            "wall_s": {"value": v, "unit": "s"}}} for v in values]
        with open(path, "w") as fh:
            json.dump({"runs": runs}, fh)

    def test_verdicts(self):
        steady = [10.0, 10.1, 9.9, 10.0, 10.05]
        self.assertEqual(compare.verdict(steady, steady, 0.1, True), "ok")
        slower = [v * 1.2 for v in steady]
        self.assertEqual(compare.verdict(steady, slower, 0.1, True), "worse")
        self.assertEqual(compare.verdict(slower, steady, 0.1, True), "better")
        noisy = [5.0, 10.0, 15.0, 8.0, 12.0]
        self.assertEqual(compare.verdict(steady, noisy, 0.1, True),
                         "unresolved")

    def test_compare_files(self):
        base = os.path.join(harness.ROOT, ".bench_build")
        os.makedirs(base, exist_ok=True)
        tmp = tempfile.mkdtemp(dir=base)
        try:
            old, new = os.path.join(tmp, "a.json"), os.path.join(tmp, "b.json")
            self.write(old, [10.0, 10.1, 9.9])
            self.write(new, [13.0, 13.1, 12.9])
            rc, out, _ = bench("--compare", old, new)
        finally:
            shutil.rmtree(tmp)
        self.assertEqual(rc, 1)
        self.assertIn("worse", out)


if __name__ == "__main__":
    unittest.main()
