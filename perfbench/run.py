#!/usr/bin/env python3
"""End-to-end benchmark for performa.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest        # short runs, schema check
    python3 perfbench/run.py --compare A.json B.json

Run from the root of a checkout. The first run builds the library
(Release, from the checkout's own sources) and the driver into
.bench_build/; later runs reuse the build. Workloads are described in
perfbench/README.md. The last line of stdout is one JSON object:

    {"correct": bool, "attempted": int, "failed": int, "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics; with --trace 1 the
per-layer metrics of a separate traced run. Every answer is checked
against the committed references in perfbench/reference/. A full result
with provenance is also written to .bench_build/results/.
"""

import argparse
import json
import os
import platform
import random
import re
import shutil
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path
from statistics import median

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_build"
LIB_BUILD = OUT / "performa"
DRV_BUILD = OUT / "driver"
REFS = BENCH / "reference"

WORKLOADS = ("cold_paper", "cold_level_dependent", "fig_regen")

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "cpu_s_per_answer": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "map.build_ms": "ms",
    "map.phase_dim": "count",
    "qbd.blocks_ms": "ms",
    "qbd.solve_r_ms": "ms",
    "qbd.r_iterations": "count",
    "qbd.r_attempts": "count",
    "qbd.r_win_ratio": "ratio",
    "qbd.boundary_certify_ms": "ms",
    "qbd.verify_ms": "ms",
    "qbd.trust_escalations": "count",
    "qbd.level_dependent_ms": "ms",
    "qbd.ld_unknowns": "count",
    "linalg.gemm_gflops": "GFLOP/s",
    "linalg.lu_ms": "ms",
    "linalg.solve_r_gflops_computed": "GFLOP/s",
    "linalg.pool_speedup_2": "x",
    "linalg.pool_speedup_4": "x",
    "daemon.parse_us": "us",
    "daemon.key_us": "us",
    "daemon.hit_us": "us",
    "daemon.miss_ms": "ms",
    "daemon.journal_append_ms": "ms",
    "daemon.socket_overhead_us": "us",
    "daemon.cache_hit_ratio": "ratio",
    "daemon.shed_count": "count",
    "runner.point_overhead_ms": "ms",
    "sim.events_per_s": "1/s",
    "obs.trace_overhead_frac": "ratio",
}

# Library targets the workloads need; tests and examples are not built.
TARGETS = [
    "performad", "fig1_mean_ql", "fig7_sim_validation", "fig8_strategies",
    "fig9_nonexp_tasks", "ext9_repair_contention", "performa_daemon",
    "performa_runner", "performa_core", "performa_qbd", "performa_sim",
    "performa_map", "performa_medist", "performa_linalg", "performa_obs",
]

# fig_regen: the harness subset (each pass runs it in a seeded order) and
# the simulation scale.
FIG_HARNESSES = ("fig1_mean_ql", "ext9_repair_contention",
                 "fig7_sim_validation", "fig8_strategies",
                 "fig9_nonexp_tasks")
FIG_SCALE = "0.01"
FIG_PASS_S = 3.0  # nominal pass time; sets the fixed pass count

TAIL_WINDOW = 100  # cold workloads: fewest answers per tail window
# Start-ups per run for setup_s (the median is reported): a start takes
# a few ms, and single starts on a shared host scatter by +-30%.
SETUP_STARTS = 20


def cold_env():
    """Environment of the cold workloads' driver: a width-1 pool unless the
    caller sets PERFORMA_THREADS, so the gated figures are the solver's
    serial cost. The library's default width (nproc) is not gated: on a
    shared host a pool waits on its slowest vCPU at every fan-out, so its
    wall time swings with whatever other tenants run (see the README's
    "Thread budget"). Widths 1, 2 and 4 are compared by the traced run
    (linalg.pool_speedup_*)."""
    env = dict(os.environ)
    env.setdefault("PERFORMA_THREADS", "1")
    return env


class BenchError(Exception):
    pass


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def tail_of(samples):
    """Highest percentile with at least 10 samples beyond it, as (value,
    percentile, n). With 20 samples or fewer that percentile is not above
    the median, so the slowest sample (percentile 100) is reported."""
    s = sorted(samples)
    n = len(s)
    if n <= 20:
        return s[-1], 100.0, n
    return s[n - 11], 100.0 * (n - 10) / n, n


# ---------------------------------------------------------------------------
# Build


def run_logged(cmd, log_path):
    with open(log_path, "a") as f:
        f.write("$ " + " ".join(map(str, cmd)) + "\n")
        f.flush()
        rc = subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT).returncode
    if rc != 0:
        tail = Path(log_path).read_text().splitlines()[-30:]
        raise BenchError("build step failed: " + " ".join(map(str, cmd)) +
                         "\n" + "\n".join(tail))


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError(f"{ROOT} holds no performa sources to build")
    OUT.mkdir(exist_ok=True)
    build_log = OUT / "build.log"
    gen = ["-G", "Ninja"] if shutil.which("ninja") else []
    jobs = str(nproc())
    if not (LIB_BUILD / "CMakeCache.txt").exists():
        run_logged(["cmake", "-S", ROOT, "-B", LIB_BUILD, *gen,
                    "-DCMAKE_BUILD_TYPE=Release",
                    "-DPERFORMA_BUILD_TESTS=OFF",
                    "-DPERFORMA_BUILD_EXAMPLES=OFF"], build_log)
    run_logged(["cmake", "--build", LIB_BUILD, "-j", jobs, "--target", *TARGETS],
               build_log)
    if not (DRV_BUILD / "CMakeCache.txt").exists():
        run_logged(["cmake", "-S", BENCH / "driver", "-B", DRV_BUILD, *gen,
                    "-DCMAKE_BUILD_TYPE=Release",
                    f"-DPERFORMA_SOURCE_DIR={ROOT / 'src'}",
                    f"-DPERFORMA_BUILD_DIR={LIB_BUILD}"], build_log)
    run_logged(["cmake", "--build", DRV_BUILD, "-j", jobs], build_log)


def driver():
    return str(DRV_BUILD / "pbdriver")


def harness(name):
    return str(LIB_BUILD / "bench" / name)


def performad():
    return str(LIB_BUILD / "src" / "daemon" / "performad")


# ---------------------------------------------------------------------------
# Provenance


def provenance(kernel=None, env=None):
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    cache = {}
    try:
        for line in (LIB_BUILD / "CMakeCache.txt").read_text().splitlines():
            m = re.match(r"(CMAKE_BUILD_TYPE|CMAKE_CXX_COMPILER):\w+=(.*)", line)
            if m:
                cache[m.group(1)] = m.group(2)
    except OSError:
        pass
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        version = compiler
    return {
        "nproc": nproc(),
        "cpu_model": cpu,
        "compiler": version,
        "build_type": cache.get("CMAKE_BUILD_TYPE", "unknown"),
        "kernel_backend": kernel or os.environ.get("PERFORMA_KERNEL", "default"),
        "PERFORMA_THREADS": str((env or {}).get(
            "PERFORMA_THREADS", os.environ.get("PERFORMA_THREADS", "default"))),
        "PERFORMA_JOBS": str((env or {}).get(
            "PERFORMA_JOBS", os.environ.get("PERFORMA_JOBS", "default"))),
        "machine": platform.machine(),
    }


# ---------------------------------------------------------------------------
# Process helpers


class Proc:
    """A child process that is always stopped and reaped."""

    def __init__(self, cmd, cwd, env=None, stdout=subprocess.PIPE,
                 stderr=subprocess.PIPE):
        self.t0 = time.perf_counter()
        self.p = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=stdout,
                                  stderr=stderr, text=True)

    def stop(self, sig=signal.SIGTERM, timeout=10):
        if self.p.poll() is None:
            self.p.send_signal(sig)
            try:
                self.p.wait(timeout)
            except subprocess.TimeoutExpired:
                self.p.kill()
                self.p.wait()
        return self.p.returncode


def run_driver(args, cwd, timeout=170, env=None):
    """Run pbdriver; returns (setup seconds to its "ready" line, JSON)."""
    proc = Proc([driver(), *map(str, args)], cwd, env=env)
    try:
        first = proc.p.stdout.readline()
        setup = time.perf_counter() - proc.t0
        if first.strip() != "ready":
            proc.stop(signal.SIGKILL)
            raise BenchError(f"pbdriver {args[0]}: no ready line "
                             f"({proc.p.stderr.read().strip()})")
        rest, err = proc.p.communicate(timeout=timeout)
    finally:
        proc.stop(signal.SIGKILL)
    if proc.p.returncode != 0:
        raise BenchError(f"pbdriver {args[0]} exited {proc.p.returncode}: {err.strip()}")
    lines = rest.strip().splitlines()
    return setup, (json.loads(lines[-1]) if lines else {})


# ---------------------------------------------------------------------------
# Cold workloads (closed loop, one caller)


def cold_setup(workload, workdir, seed):
    """Start-up time of the driver to its first timed operation, sampled
    several times (the reported figure is the median)."""
    samples = []
    for _ in range(SETUP_STARTS):
        s, _ = run_driver(["cold", "--workload", workload, "--refs-dir", REFS,
                           "--workdir", workdir, "--seed", seed, "--setup-only"],
                          workdir, env=cold_env())
        samples.append(s)
    return samples


def run_cold(workload, seed, seconds, trace, workdir):
    res = {"notes": {}}
    setups = cold_setup(workload, workdir, seed)
    s, d = run_driver(["cold", "--workload", workload, "--refs-dir", REFS,
                       "--workdir", workdir, "--seed", seed, "--seconds",
                       seconds, "--trace", trace], workdir, env=cold_env())
    setups.append(s)
    res["kernel"] = d.get("kernel")
    res["env"] = {"PERFORMA_THREADS": d["pool_threads"]}
    res["attempted"] = d["answers"]
    res["failed"] = d["failed"]
    res["failures"] = d["failures"]
    if trace:
        res["layers"] = d["layers"]
        res["layer_source"] = d["layer_source"]
        res["notes"]["trace_file"] = d["trace_file"]
        return res
    # The tail is taken per window of whole passes holding at least
    # TAIL_WINDOW answers (each window sees the grid's full mix), and the
    # median over windows is reported: one slow stretch of the host moves
    # one window, not the run's single highest percentile.
    lat = d["latency_ms"]
    per_pass = len(lat) // len(d["pass_s"])
    size = per_pass * -(-TAIL_WINDOW // per_pass)
    windows = [lat[i:i + size] for i in range(0, len(lat) - size + 1, size)]
    tails = [tail_of(w) for w in windows]
    res["metrics"] = {
        "setup_s": median(setups),
        "wall_s": median(d["pass_s"]),
        "latency_p50_ms": median(lat),
        "latency_tail_ms": median([t[0] for t in tails]),
        "cpu_s_per_answer": d["cpu_s"] / d["answers"],
        "peak_rss_mb": d["peak_rss_mb"],
    }
    res["notes"].update({"latency_tail_percentile": tails[0][1],
                         "latency_window_samples": size,
                         "latency_windows": len(windows),
                         "passes": len(d["pass_s"])})
    return res


# ---------------------------------------------------------------------------
# performad


def unix_request(path, line, timeout=5.0):
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
        s.settimeout(timeout)
        s.connect(path)
        s.sendall(line.encode())
        data = b""
        while True:
            chunk = s.recv(65536)
            if not chunk:
                break
            data += chunk
            if not line.startswith("GET") and data.endswith(b"\n"):
                break
    return data.decode()


class Daemon:
    """performad with production defaults (journal on, fsync per append,
    default worker count and queue bound) on a Unix socket in `workdir`."""

    def __init__(self, workdir, journal):
        self.workdir = workdir
        self.sock = str(workdir / "d.sock")
        if os.path.exists(self.sock):
            os.unlink(self.sock)
        self.log = open(workdir / "performad.log", "a")
        self.proc = Proc([performad(), "--socket", "d.sock", "--journal", journal],
                         workdir, stdout=subprocess.DEVNULL, stderr=self.log)
        deadline = time.perf_counter() + 60
        while True:
            if self.proc.p.poll() is not None:
                self.log.close()
                raise BenchError("performad exited during start-up: " +
                                 (self.workdir / "performad.log").read_text()[-500:])
            try:
                reply = json.loads(unix_request(self.sock, '{"op":"readyz"}\n', 1.0))
                if reply.get("ok"):
                    break
            except (OSError, ValueError):
                pass
            if time.perf_counter() > deadline:
                self.stop()
                raise BenchError("performad did not become ready")
            time.sleep(0.0005)

    def request(self, obj):
        return json.loads(unix_request(self.sock, json.dumps(obj) + "\n"))

    def scrape(self):
        return unix_request(self.sock, "GET /metrics HTTP/1.0\r\n\r\n")

    def stop(self):
        rc = self.proc.stop(signal.SIGTERM, timeout=30)
        self.log.close()
        return rc


def prom_value(text, name):
    for line in text.splitlines():
        if line.startswith(name + " ") or line.startswith(name + "{"):
            return float(line.rsplit(" ", 1)[1])
    raise BenchError(f"/metrics scrape has no {name}")


def prepare_journal(workdir):
    """Journal holding the hot keys, written by a clean daemon drain. The
    measured daemon starts from a copy, so its start-up rehydrates."""
    journal = workdir / "hot.journal"
    if journal.exists():
        journal.unlink()
    d = Daemon(workdir, str(journal))
    try:
        _, out = run_driver(["loadgen", "--socket", "d.sock", "--refs-dir", REFS,
                             "--workdir", workdir, "--warm-only"], workdir)
    finally:
        d.stop()
    if out.get("warm_failed", 1) != 0:
        raise BenchError(f"warming the hot keys failed: {out}")
    return journal


def daemon_session(workdir, seed):
    """A short open-loop session against a performad rehydrated from the
    hot keys' journal: the socket round trip of a hit, then a reference
    stream of the stationary mix. Returns the generator's result and the
    daemon's `stats` op and /metrics scrape after the load."""
    journal = prepare_journal(workdir)
    shutil.copyfile(journal, workdir / "run.journal")
    daemon = Daemon(workdir, "run.journal")
    try:
        _, out = run_driver(["loadgen", "--socket", "d.sock", "--refs-dir", REFS,
                             "--workdir", workdir, "--seed", seed], workdir)
        stats = daemon.request({"op": "stats"})
        prom = daemon.scrape()
    finally:
        rc = daemon.stop()
    if rc != 0:
        raise BenchError(f"performad exited {rc} on drain")
    return out, stats, prom


def socket_layers(out, stats, prom, hit_us):
    """daemon.* metrics seen from the socket: the round trip of a hit less
    its in-process cost, and the daemon's own counters after the load."""
    hits, misses = stats["cache_hits"], stats["cache_misses"]
    return {
        "daemon.cache_hit_ratio": hits / max(1, hits + misses),
        "daemon.shed_count": prom_value(prom, "daemon_queue_shed"),
        "daemon.socket_overhead_us": out["socket_p50_us"] - hit_us,
    }


# ---------------------------------------------------------------------------
# fig_regen


def csv_sections(text):
    """[(header, [rows])] of the CSV blocks in a harness's output."""
    sections, header, rows = [], None, []
    for line in text.splitlines():
        if not line.strip() or line.startswith("#"):
            if header:
                sections.append((header, rows))
            header, rows = None, []
            continue
        cells = line.split(",")
        if header is None:
            header = cells
        else:
            rows.append(cells)
    if header:
        sections.append((header, rows))
    return sections


def last_digit_unit(text):
    """One unit in the last printed digit of a decimal or %e number."""
    m = re.match(r"^-?\d+(?:\.(\d+))?(?:[eE]([-+]?\d+))?$", text)
    if not m:
        return None
    decimals = len(m.group(1) or "")
    exponent = int(m.group(2) or 0)
    return 10.0 ** (exponent - decimals)


# Simulated columns and the CI column that bounds them. Simulated columns
# without a printed CI are seeded, so they must reproduce to print precision.
SIM_CI = {
    "fig7_sim_validation": {"sim_multiproc": "sim_multiproc_ci"},
    "fig8_strategies": {"discard_nql": "discard_ci", "resume_nql": "discard_ci",
                        "restart_nql": "discard_ci"},
}


def compare_csv(name, got_text, ref_text):
    errors = []
    got, ref = csv_sections(got_text), csv_sections(ref_text)
    if len(got) != len(ref):
        return [f"{name}: {len(got)} CSV sections, reference has {len(ref)}"]
    for (gh, grows), (rh, rrows) in zip(got, ref):
        if gh != rh or len(grows) != len(rrows):
            errors.append(f"{name}: header/row count differs from reference")
            continue
        for gr, rr in zip(grows, rrows):
            for j, col in enumerate(rh):
                g, r = gr[j], rr[j]
                unit = last_digit_unit(r)
                if unit is None or last_digit_unit(g) is None:
                    if g != r:
                        errors.append(f"{name} {rr[0]} {col}: {g} vs {r}")
                    continue
                ci_col = SIM_CI.get(name, {}).get(col)
                tol = unit * 1.0000001
                if ci_col is not None:
                    tol = max(tol, float(rr[rh.index(ci_col)]))
                if abs(float(g) - float(r)) > tol:
                    errors.append(f"{name} {rr[0]} {col}: {g} vs {r} (tol {tol:g})")
    return errors


def fig_env():
    jobs = max(1, nproc() // 2)
    threads = max(1, nproc() // jobs)
    env = dict(os.environ)
    env.update({"PERFORMA_BENCH_SCALE": FIG_SCALE, "PERFORMA_JOBS": str(jobs),
                "PERFORMA_THREADS": str(threads)})
    for k in ("PERFORMA_CHECKPOINT", "PERFORMA_RESUME", "PERFORMA_GOLDEN",
              "PERFORMA_TRACE", "PERFORMA_METRICS"):
        env.pop(k, None)
    return env, jobs, threads


def run_harness(name, env, workdir):
    """Run one harness to completion; returns (wall seconds, stdout, CPU
    seconds, peak RSS in MB). CPU and peak RSS are the harness's own, with
    the runner workers it forked and reaped, from wait4: a high-water mark
    over this process's children would also cover the build tools."""
    out_path, err_path = workdir / f"{name}.out", workdir / f"{name}.err"
    with open(out_path, "w") as out, open(err_path, "w") as err:
        t0 = time.perf_counter()
        p = subprocess.Popen([harness(name)], cwd=workdir, env=env,
                             stdout=out, stderr=err)
        timer = threading.Timer(170, p.kill)
        timer.start()
        try:
            _, status, ru = os.wait4(p.pid, 0)
        except BaseException:
            p.kill()
            p.wait()
            raise
        finally:
            timer.cancel()
        dt = time.perf_counter() - t0
    p.returncode = os.waitstatus_to_exitcode(status)
    if p.returncode != 0:
        raise BenchError(f"{name} exited {p.returncode}: "
                         f"{err_path.read_text().strip()[-500:]}")
    return dt, out_path.read_text(), ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0


def strip_banner(text):
    # Provenance lines (kernel, thread width) are not part of the answer.
    return "\n".join(l for l in text.splitlines() if not l.startswith("# kernel:"))


def run_fig(seed, seconds, trace, workdir):
    res = {"notes": {}}
    env, jobs, threads = fig_env()
    res["env"] = {"PERFORMA_JOBS": jobs, "PERFORMA_THREADS": threads}
    res["notes"]["PERFORMA_BENCH_SCALE"] = FIG_SCALE
    refs = {h: (REFS / "fig" / f"{h}.csv").read_text() for h in FIG_HARNESSES}

    # Set-up: fig1 relaunched on its own completed checkpoint (process
    # start, runner set-up, checkpoint load, CSV out; nothing recomputed).
    ck = workdir / "fig1.ck"
    if ck.exists():
        ck.unlink()
    ck_env = dict(env, PERFORMA_CHECKPOINT=str(ck))
    run_harness("fig1_mean_ql", ck_env, workdir)
    setups = [run_harness("fig1_mean_ql", dict(ck_env, PERFORMA_RESUME="1"),
                          workdir)[0] for _ in range(SETUP_STARTS)]

    # A fixed number of passes (from --seconds, not from measured time) so
    # every run has the same sample structure; the seed picks the order.
    rng = random.Random(int(seed))
    passes = 1 if trace else max(2, round(float(seconds) / FIG_PASS_S))
    failures, per_harness, pass_s = [], {h: [] for h in FIG_HARNESSES}, []
    spans, cpu, peak_rss = [], 0.0, 0.0
    for p in range(passes):
        order = list(FIG_HARNESSES)
        rng.shuffle(order)
        t_pass = time.perf_counter()
        for h in order:
            t0 = time.perf_counter_ns()
            dt, out, cpu_s, rss = run_harness(h, env, workdir)
            cpu += cpu_s
            peak_rss = max(peak_rss, rss)
            spans.append({"name": h, "start_ns": t0, "end_ns": time.perf_counter_ns(),
                          "parent": -1, "rid": p})
            per_harness[h].append(dt)
            failures += compare_csv(h, strip_banner(out), strip_banner(refs[h]))
            m = re.search(r"^# kernel: (\w+)", out, re.M)
            if m:
                res["kernel"] = m.group(1)
        pass_s.append(time.perf_counter() - t_pass)
    res["attempted"] = passes * len(FIG_HARNESSES)
    res["failed"] = len(failures)
    res["failures"] = failures[:20]
    if trace:
        trace_file = workdir / f"trace-fig_regen-{seed}.jsonl"
        trace_file.write_text("".join(json.dumps(s) + "\n" for s in spans))
        _, probe = run_driver(["probe", "--refs-dir", REFS, "--workdir", workdir],
                              workdir)
        res["layers"] = probe["layers"]
        res["failed"] += probe["failed"]
        res["failures"] += probe["failures"]
        res["notes"]["trace_file"] = str(trace_file)
        return res
    # One answer is one regenerated, checked figure subset (a pass): the
    # harnesses differ in cost by 50x, so per-harness percentiles would
    # land on whichever harness sits in the middle.
    tail, pct, n = tail_of(pass_s)
    res["metrics"] = {
        "setup_s": median(setups),
        "wall_s": sum(pass_s) / len(pass_s),
        "latency_p50_ms": 1e3 * median(pass_s),
        "latency_tail_ms": 1e3 * tail,
        "cpu_s_per_answer": cpu / len(pass_s),
        "peak_rss_mb": peak_rss,
    }
    res["notes"].update({"latency_tail_percentile": pct, "latency_samples": n,
                         "harness_s": {h: median(v) for h, v in per_harness.items()}})
    return res


# ---------------------------------------------------------------------------
# Orchestration


def run_workload(workload, seed, seconds, trace):
    workdir = OUT / "runs" / f"{workload}-{seed}-{trace}"
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    if workload in ("cold_paper", "cold_level_dependent"):
        res = run_cold(workload, seed, seconds, trace, workdir)
    else:
        res = run_fig(seed, seconds, trace, workdir)
    if trace:
        layers = res["layers"]
        src = res.setdefault("layer_source", {k: "probe" for k in layers})
        # Every traced run: a short performad session for the layer's
        # socket-side figures. Any reply that is not a fresh, certified,
        # correct answer counts as failed.
        out, stats, prom = daemon_session(workdir, seed)
        sock = socket_layers(out, stats, prom, layers["daemon.hit_us"])
        layers.update(sock)
        src.update({k: "probe" for k in sock})
        ref = out["reference"]
        res["attempted"] += ref["requests"]
        res["failed"] += ref["requests"] - ref["ok"]
        res["failures"] += out["wrong_details"] + (
            [f"daemon session: {ref}"] if ref["requests"] != ref["ok"] else [])
        res["notes"]["daemon_session"] = ref
        res["notes"]["daemon_trace_file"] = out["trace_file"]
        res["metrics"] = {k: layers[k] for k in PER_LAYER if k in layers}
    return res


def emit(workload, seed, seconds, trace, res):
    expected = PER_LAYER if trace else END_TO_END
    missing = [k for k in expected if k not in res.get("metrics", {})]
    prov = provenance(res.get("kernel"), res.get("env"))
    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": trace, "provenance": prov, **res}
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{workload}-{seed}-{trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True))
    print(f"# provenance: {json.dumps(prov, sort_keys=True)}")
    for k, v in res.get("notes", {}).items():
        print(f"# {k}: {v}")
    for f in res.get("failures", []):
        print(f"# FAILED: {f}")
    for k, unit in expected.items():
        if k in res.get("metrics", {}):
            src = res.get("layer_source", {}).get(k, "")
            print(f"metric {k} = {res['metrics'][k]:.6g} {unit}"
                  + (f" ({src})" if src else ""))
    if missing:
        raise BenchError(f"metrics missing from the result: {missing}")
    out = {
        "correct": res["failed"] == 0,
        "attempted": int(res["attempted"]),
        "failed": int(res["failed"]),
        "metrics": {k: {"value": float(res["metrics"][k]), "unit": u}
                    for k, u in expected.items()},
    }
    print(json.dumps(out))
    return out


def compare(a_path, b_path):
    a, b = (json.loads(Path(p).read_text()) for p in (a_path, b_path))
    if a["provenance"] != b["provenance"]:
        diff = {k: (a["provenance"].get(k), b["provenance"].get(k))
                for k in set(a["provenance"]) | set(b["provenance"])
                if a["provenance"].get(k) != b["provenance"].get(k)}
        raise BenchError(f"refusing to compare: provenance differs {diff}")
    if (a["workload"], a["trace"], a["seconds"]) != (b["workload"], b["trace"], b["seconds"]):
        raise BenchError("refusing to compare different workloads, modes or run lengths")
    for k in a["metrics"]:
        va, vb = a["metrics"][k], b["metrics"].get(k)
        rel = (vb - va) / va if va and vb is not None else float("nan")
        print(f"{k}: {va:.6g} -> {vb:.6g} ({rel:+.1%})")


def selftest():
    """Short run of every workload, both modes; validates the output
    schema (and BENCHMARK.json's metric lists, when present) so a gate
    never ends without medians."""
    ok = True
    spec_path = ROOT / "BENCHMARK.json"
    if spec_path.exists():
        spec = json.loads(spec_path.read_text())
        for key, want in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
            got = {m["name"]: m["unit"] for m in spec[key]}
            if got != want:
                ok = False
                print(f"selftest BENCHMARK.json {key}: {got} != {want}")
        unknown = {w["name"] for w in spec["workloads"]} - set(WORKLOADS)
        if unknown:
            ok = False
            print(f"selftest BENCHMARK.json: unknown workloads {unknown}")
    for w in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, __file__, "--workload", w, "--seed", "1",
                   "--seconds", "2", "--trace", str(trace)]
            p = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            lines = p.stdout.strip().splitlines()
            try:
                out = json.loads(lines[-1])
                assert p.returncode == 0, f"exit {p.returncode}"
                assert set(out) == {"correct", "attempted", "failed", "metrics"}
                assert out["correct"] is True and out["failed"] == 0
                assert isinstance(out["attempted"], int) and out["attempted"] >= 1
                want = PER_LAYER if trace else END_TO_END
                assert set(out["metrics"]) == set(want), "metric names"
                for k, m in out["metrics"].items():
                    assert set(m) == {"value", "unit"} and m["unit"] == want[k]
                    assert isinstance(m["value"], float) and m["value"] == m["value"]
                    if not trace:
                        assert m["value"] != 0, f"{k} is zero"
                print(f"selftest {w} trace={trace}: ok")
            except (AssertionError, IndexError, ValueError) as e:
                ok = False
                print(f"selftest {w} trace={trace}: FAILED {e}\n{p.stderr[-2000:]}")
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", default="1")
    ap.add_argument("--seconds", default="10")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    ap.add_argument("--compare", nargs=2, metavar="RESULT_JSON")
    args = ap.parse_args()
    try:
        if args.compare:
            compare(*args.compare)
            return 0
        build()
        if args.selftest:
            return selftest()
        if not args.workload:
            ap.error("--workload is required")
        if not re.fullmatch(r"\d+", args.seed):
            ap.error("--seed must be a non-negative integer")
        res = run_workload(args.workload, args.seed, args.seconds, args.trace)
        emit(args.workload, args.seed, args.seconds, args.trace, res)
        return 0
    except (BenchError, OSError, subprocess.SubprocessError, KeyError) as e:
        print(f"perfbench: {type(e).__name__}: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
