#!/usr/bin/env python3
"""Repository benchmark: one ruidtool router in front of two shards.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  It builds bin/ruidtool.exe with dune and
pbtool, the benchmark's own dune project in perfbench/pbtool, against a copy
of lib/ in .perfbench_build; then it generates the workload's documents
from the seed, starts `ruidtool serve` twice (default config, fresh data
dirs) and `ruidtool router` over them, drives the router from this process with at
most two connections, checks every answer, stops the servers with SHUTDOWN
(router first), and prints one JSON object as its last line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics; --trace 1 is a separate run that
reports the per-layer metrics: client-side probes (router vs. direct to the
shard), the public STATS counters, and `pbtool trace`, which times calls into
each layer's public functions over the same seeded documents.

Workloads (why each exists is in BENCHMARK.json):
  query_mix   8 XMark documents; seeded COUNT/QUERY/COUNTD/QUERYD mix;
              a closed loop on 2 connections alternates with an open loop
              at QUERY_RATE/s
  update_mix  one hot XMark document (shard 0) + cold ones (shard 1); a
              closed-loop writer sends INSERT/DELETE pairs, a closed-loop
              reader with a think time sends COUNTD
  ingest      4 base XMark documents loaded at set-up; then ~10.4 MB of
              XMark, DBLP-wide and deep documents shipped by 2 connections,
              one per shard's documents, with ADDDOC / ADDCHUNK, pass after
              pass

A line starting with "info " before the result carries provenance, the
per-kind op counts and the sample count behind every metric.
"""

import argparse
import hashlib
import json
import os
import random
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUIDTOOL = os.path.join(ROOT, "_build", "default", "bin", "ruidtool.exe")
PBTOOL_SRC = os.path.join(HERE, "pbtool")
# pbtool's build: its own dune project plus a copy of lib/ (see stage_pbtool)
STAGE = os.path.join(ROOT, ".perfbench_build")
PBTOOL = os.path.join(STAGE, "_build", "default", "pbtool.exe")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")

CONNECTIONS = 2
SHARDS = 2
# Offered rate of the query_mix open-loop phase, requests/s: about a tenth
# of the closed-loop capacity (~1100/s) measured at the commit that defined
# this benchmark (2 cores).  With two connections, higher rates queue
# requests behind the slower collection-wide ones, and the tail then
# measured that queueing, which swung with the machine's speed between
# runs.  A constant, so that a faster program shows as lower latency at
# the same load rather than as a different load.
QUERY_RATE = 100.0
# Think time of the update_mix reader, seconds, drawn uniformly per read.
# Without one, the reader and the writer, two threads of this client,
# decided between them how many reads slipped in between two updates (and
# so did not wait for one): 0-40% per 5-s stretch, and the reads' median
# jumped between 0.3 ms and 20 ms.  With it, each read arrives at a random
# point of the writer's rhythm.  (Open-loop readers queued behind their own
# slow reads; see perfbench/README.md.)
READ_THINK_S = (0.01, 0.04)
# query_mix alternates BLOCKS closed-loop and open-loop stretches, so that
# both phases sample the whole run and a slow stretch of the machine hits
# them alike; each metric pools its samples over all of them.
BLOCKS = 10
# set-ups per run; setup_s is their median
SETUPS = 5
SHUTDOWN_DEADLINE_S = 10.0
READY_DEADLINE_S = 20.0
CHUNK = 512 * 1024  # ADDCHUNK payload; the protocol caps a frame at 1 MiB
MAX_DOC_FRAME = 1000 * 1000  # larger documents ship as ADDCHUNK

# ---------------------------------------------------------------------------
# workloads: documents and requests


# Query families over the XMark schema.  The class names are the planner's
# strategies; every text below plans as its class (EXPLAIN).
FAMILIES = {
    "chain": [
        "//item/name",
        "//open_auction/bidder/increase",
        "//closed_auction//listitem",
        "//person/profile/interest",
        "//parlist//text",
        "//regions//item/location",
        "//closed_auction/annotation//text",
    ],
    "twig": [
        "//person[profile/interest]/name",
        "//person[creditcard]/name",
        "//open_auction[bidder/increase]/seller",
        "//item[description/parlist]/location",
        "//closed_auction[annotation]/price",
    ],
    "pruned": [
        "//warehouse/item",
        "//item/bidder",
        "//person/increase",
        "//open_auction/buyer",
    ],
    # engine fallback: reverse axes, positions and value predicates
    "fallback": [
        "//listitem/ancestor::item",
        "//item[quantity>3]/name",
        "//increase/parent::bidder",
        "//annotation/preceding::bidder",
        "//bidder/following-sibling::current",
        "/site/people/person[1]",
        "/site/people/person/emailaddress",
    ],
}
# Half of all draws: value predicates with 1024 distinct literals, four
# times the servers' default 256-plan cache, so most of them miss it.
NUMERIC = [f"//closed_auction[price>{n}]/itemref" for n in range(512)] + [
    f"//open_auction[current>{n}]/seller" for n in range(512)
]
# Draws come from shuffled decks that hold the class and verb shares
# exactly, so that every seed runs the same mix.  Single-document verbs
# dominate, so the median falls inside the single-document numeric mode and
# the 90th percentile inside the collection-wide numeric mode, not in a gap
# between two modes.
CLASS_DECK = ["numeric"] * 10 + ["chain"] * 3 + ["twig"] * 3 + \
    ["pruned"] * 2 + ["fallback"] * 2
VERB_DECK = ["COUNTD"] * 9 + ["QUERYD"] * 6 + ["COUNT"] * 3 + ["QUERY"] * 2
# update_mix reader queries: INSERT p 0 m adds an <m> leaf, which none of
# these match, so their answers stay fixed while the writer runs
READER_QUERIES = ["//item/name", "//person/profile/interest",
                  "//open_auction/bidder/increase", "//person[creditcard]/name"]
# per-layer probes that run on every workload's documents
PROBE_QUERIES = ["//item/name", "//person[creditcard]/name",
                 "//closed_auction[price>100]/itemref"]

# ingest corpus, ~10.4 MB and ~646k nodes in eleven documents: (name, kind,
# size parameter); sizes are fixed, the seed only changes content.
# dblp_big (~3.6 MB, wide root) is the largest.  Deep documents stay at 20k
# elements: from 40k on, ADDDOC fails with Ruid.Uid.Overflow on a large
# share of seeds (the two-level ruid's native-int limit, see Ruid2.number),
# and no operation may fail here.  A pass takes ~5 s and the ingest metrics
# are medians over the passes of one run; a corpus half again as large would
# leave about four passes per run.
#
# op_p50_ms is the middle document's time.  Documents under ~250 KB take
# 80-230 ms and vary up to 3x between passes, those from ~500 KB on by
# about a tenth, so six of the eleven are 0.5 MB or more and the middle one
# is a ~1 MB document: xmark_m1 and dblp_m2 are there for that (with nine
# documents op_p50_ms spread 0.18-0.24 over five runs, with eleven 0.08).
# Both are on shard 1, which otherwise finished ~1.8 s before shard 0, so a
# pass takes no longer.  The shards then hold ~700 MB (~1.1 KB per hosted
# node).
#
# The deep documents' structure does not follow the run's seed: about one
# random deep structure in 300 cannot be numbered at any size (seeds 29 and
# 514 of the first 600 overflow at both 10k and 20k elements, since the
# generator's first levels do not depend on the size), which would fail one
# run in a hundred.  They come from these fixed seeds, each numbered
# without overflow.
DEEP_SEEDS = {"deep_a": 1, "deep_b": 2, "deep_c": 3}
INGEST_CORPUS = [
    ("dblp_big", "dblp", "20000"), ("xmark_l", "xmark", "25"),
    ("xmark_m", "xmark", "12"), ("dblp_m", "dblp", "5000"),
    ("xmark_s", "xmark", "3"), ("dblp_s", "dblp", "1000"),
    ("deep_a", "deep", "20000"), ("deep_b", "deep", "20000"),
    ("deep_c", "deep", "20000"),
    ("xmark_m1", "xmark", "12"), ("dblp_m2", "dblp", "5000"),
]


class Draws:
    """Seeded request stream of the query_mix workload.  Classes, verbs and
    each family's queries are dealt from shuffled decks, so every seed runs
    the same mix in a different order; numeric literals are drawn."""

    def __init__(self, seed, doc_names):
        self.rng = random.Random(seed)
        self.docs = doc_names
        self.decks = {}

    def _deal(self, key, full):
        deck = self.decks.setdefault(key, [])
        if not deck:
            deck.extend(full)
            self.rng.shuffle(deck)
        return deck.pop()

    def __iter__(self):
        return self

    def __next__(self):
        cls = self._deal("class", CLASS_DECK)
        q = (self.rng.choice(NUMERIC) if cls == "numeric"
             else self._deal(cls, FAMILIES[cls]))
        verb = self._deal("verb", VERB_DECK)
        if cls == "fallback" and not verb.endswith("D"):
            # Reverse-axis and positional fallbacks run on one document: a
            # collection-wide one takes ~45 ms, queues the open loop behind
            # it and made the tail swing with the machine's speed.  Value
            # predicates (the numeric class) still run collection-wide.
            verb += "D"
        doc = self.rng.choice(self.docs) if verb.endswith("D") else None
        return (verb, q, doc)


def shard_of(name):
    """Shard_map.hash: FNV-1a folded to OCaml's 63-bit int."""
    h = 0x4BF29CE484222325
    for c in name.encode():
        h ^= c
        h = (h * 0x100000001B3) & ((1 << 63) - 1)
    return (h & ((1 << 62) - 1)) % SHARDS


def names_on(shard, prefix, n):
    out, i = [], 0
    while len(out) < n:
        if shard_of(f"{prefix}{i}") == shard:
            out.append(f"{prefix}{i}")
        i += 1
    return out


def workload_docs(workload, seed):
    """(name, kind, param, seed) per document, plus the hot document.  The
    ingest workload's set-up loads four base documents, two per shard, that
    stay hosted while the corpus is shipped and dropped around them."""
    if workload == "query_mix":
        return [(f"q{i}", "xmark", "2.5", seed * 1000 + i)
                for i in range(8)], "q0"
    if workload == "update_mix":
        hot = names_on(0, "hot", 1)[0]
        cold = names_on(1, "cold", 3)
        docs = [(hot, "xmark", "2.5", seed * 1000)]
        docs += [(c, "xmark", "2.5", seed * 1000 + 1 + i)
                 for i, c in enumerate(cold)]
        return docs, hot
    if workload == "ingest":
        base = names_on(0, "base", 2) + names_on(1, "base", 2)
        return ([(n, "xmark", "2.5", seed * 1000 + 100 + i)
                 for i, n in enumerate(base)]
                + [(n, k, p, DEEP_SEEDS.get(n, seed * 1000 + i))
                   for i, (n, k, p) in enumerate(INGEST_CORPUS)], "xmark_s")
    raise SystemExit(f"unknown workload {workload}")


# ---------------------------------------------------------------------------
# small helpers


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def pct(xs, q):
    """q-quantile of xs by linear interpolation (q in [0, 1])."""
    s = sorted(xs)
    if not s:
        return float("nan")
    pos = q * (len(s) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


class Ops:
    """attempted / failed per op kind; BUSY, ERR and wrong answers fail."""

    def __init__(self):
        self.lock = threading.Lock()
        self.kinds = {}
        self.errors = []

    def record(self, kind, ok, detail=None):
        with self.lock:
            a = self.kinds.setdefault(kind, [0, 0])
            a[0] += 1
            if not ok:
                a[1] += 1
                if len(self.errors) < 10:
                    self.errors.append(f"{kind}: {detail}")

    def totals(self):
        return (sum(a for a, _ in self.kinds.values()),
                sum(f for _, f in self.kinds.values()))


class Conn:
    """One framed protocol connection: '<len>\\n<payload>' both ways."""

    def __init__(self, path, timeout=60.0):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.settimeout(timeout)
        self.sock.connect(path)
        self.rf = self.sock.makefile("rb")

    def call(self, payload):
        if isinstance(payload, str):
            payload = payload.encode()
        self.sock.sendall(b"%d\n" % len(payload) + payload)
        line = self.rf.readline()
        if not line:
            raise ConnectionError("connection closed by the server")
        body = self.rf.read(int(line))
        return body.decode("utf-8", "replace")

    def timed(self, payload):
        t0 = time.perf_counter()
        reply = self.call(payload)
        return reply, time.perf_counter() - t0

    def close(self):
        try:
            self.rf.close()
            self.sock.close()
        except OSError:
            pass


def counts_of(reply):
    """Per-document counts of a COUNT/QUERY(D) reply, or None."""
    if not reply.startswith("OK "):
        return None
    out = {}
    for tok in reply[3:].split():
        if tok == "ids":
            break
        k, _, v = tok.partition("=")
        if k == "partial":
            return None
        if k not in ("v", "total") and v.isdigit():
            out[k] = int(v)
    return out


def token(reply, key):
    for tok in reply.split():
        if tok.startswith(key + "="):
            return tok[len(key) + 1:]
    return None


# ---------------------------------------------------------------------------
# build, inputs, oracle


def sync_file(src, dst):
    """Copy src to dst unless dst already holds the same bytes, so that
    dune, which watches the staged copy, rebuilds only what changed."""
    with open(src, "rb") as f:
        data = f.read()
    if os.path.exists(dst):
        with open(dst, "rb") as f:
            if f.read() == data:
                return
    os.makedirs(os.path.dirname(dst), exist_ok=True)
    with open(dst, "wb") as f:
        f.write(data)


def stage_pbtool():
    """Mirror perfbench/pbtool (its own dune project) and the repository's
    lib/ into STAGE, dropping staged files whose source is gone."""
    src_lib = os.path.join(ROOT, "lib")
    want = set()
    for dirpath, _, files in os.walk(src_lib):
        for f in files:
            rel = os.path.relpath(os.path.join(dirpath, f), ROOT)
            want.add(rel)
            sync_file(os.path.join(ROOT, rel), os.path.join(STAGE, rel))
    for dirpath, _, files in os.walk(os.path.join(STAGE, "lib")):
        for f in files:
            path = os.path.join(dirpath, f)
            if os.path.relpath(path, STAGE) not in want:
                os.remove(path)
    for f in os.listdir(PBTOOL_SRC):
        if os.path.isfile(os.path.join(PBTOOL_SRC, f)):
            sync_file(os.path.join(PBTOOL_SRC, f), os.path.join(STAGE, f))


def dune_build(root, targets):
    p = subprocess.run(["dune", "build", "--root", root] + targets, cwd=root,
                       stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                       text=True)
    if p.returncode != 0:
        print(p.stdout[-4000:], file=sys.stderr)
        fail(f"build failed in {os.path.relpath(root, ROOT)}", 3)


def build():
    for f in ("dune-project", os.path.join("bin", "ruidtool.ml"),
              os.path.join("perfbench", "pbtool", "pbtool.ml")):
        if not os.path.exists(os.path.join(ROOT, f)):
            fail(f"{f} is missing: run from a checkout of the repository")
    if shutil.which("dune") is None:
        fail("dune is not on PATH")
    dune_build(ROOT, ["./bin/ruidtool.exe"])
    stage_pbtool()
    dune_build(STAGE, ["./pbtool.exe"])


def pbtool_halves(argv_of, lines):
    """Run pbtool over the two halves of `lines` at once (2 cores; nothing
    else runs yet).  `argv_of(i, half)` gives the arguments for half i.
    Returns (half, output rows) per half."""
    halves = [h for h in (lines[0::2], lines[1::2]) if h]
    procs = [subprocess.Popen([PBTOOL] + argv_of(i, h), stdout=subprocess.PIPE,
                              text=True) for i, h in enumerate(halves)]
    outs = [p.communicate()[0] for p in procs]
    if any(p.returncode != 0 for p in procs):
        fail(f"pbtool {argv_of(0, halves[0])[0]} failed", 4)
    return [(h, [l.split("\t") for l in o.splitlines()])
            for h, o in zip(halves, outs)]


def write_lines(path, lines):
    with open(path, "w") as f:
        f.write("".join(l + "\n" for l in lines))
    return path


def generate(docs, hot, inputs):
    """Write the documents with `pbtool gen`.  Returns one dict per document
    with its bytes and its node count as the server's streaming build counts
    it."""
    lines = ["\t".join([n, k, p, str(s)] + (["ranks"] if n == hot else []))
             for n, k, p, s in docs]
    info = {}
    for _, rows in pbtool_halves(
            lambda i, h: ["gen", write_lines(os.path.join(inputs, f"gen-{i}"), h),
                          inputs], lines):
        for n, b, c in rows:
            info[n] = {"bytes": int(b), "nodes": int(c)}
    return [dict(info[n], name=n, kind=k,
                 path=os.path.join(inputs, n + ".xml"))
            for n, k, _, _ in docs]


def oracle(docs, queries, inputs):
    """{(query, doc name): count} from Engine_naive, in process."""
    docs_file = write_lines(os.path.join(inputs, "oracle-docs"),
                            [f"{d['name']}\t{d['path']}" for d in docs])
    table = {}
    for half, rows in pbtool_halves(
            lambda i, h: ["oracle", docs_file,
                          write_lines(os.path.join(inputs, f"oracle-{i}"), h)],
            sorted(set(queries))):
        for qi, di, c in rows:
            table[(half[int(qi)], docs[int(di)]["name"])] = int(c)
    return table


# ---------------------------------------------------------------------------
# idle spinners

# A virtual CPU with nothing to run halts, and waking it again waits on the
# hypervisor.  The servers and this client hand each request back and forth
# and leave the CPUs idle between hops, so that wait sat on every request:
# on the 2-core VM the benchmark was defined on, closed-loop query
# throughput swung from ~550/s to ~1450/s between seconds of one run.  One
# spinner per CPU, at SCHED_IDLE, keeps every CPU busy; the kernel runs it
# only when nothing else can run, so the benchmark's own processes run as
# before, without the wake-up wait.  A spinner leaves when its parent does.
SPIN = """import os, sys
os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
parent = int(sys.argv[1])
while os.getppid() == parent:
    for _ in range(100000):
        pass
"""


# ---------------------------------------------------------------------------
# machine-speed probe

# The host's speed drifts: over six minutes of one 10-run set the same
# update_mix ran at 72, then 56, then 34 updates/s.  The query_mix and
# update_mix times and rates are therefore scaled to a reference machine
# speed, measured by this client between the blocks of a run with a fixed
# pure-Python loop that runs none of the program's code, so that a faster
# program still shows in full.  Reported value = raw * (probe /
# PROBE_REF_S) for rates and raw * (PROBE_REF_S / probe) for times, probe
# being the fastest of the run's probes.  The fastest, not the median: the
# host slows one vCPU at a time, by up to half, for seconds at a time, so a
# probe reads ~13 ms or ~19 ms by which vCPU it lands on, and the median of
# ~6 probes flipped between the two.  The fastest still follows a drift
# of the whole host over minutes.  Over ten query_mix runs the raw
# throughput followed the fastest probe closely (correlation 0.95; spreads
# 0.10-0.17 raw, 0.05-0.10 scaled), over ten update_mix runs loosely
# (0.56).  ingest is not scaled and does not probe: its throughput did not
# follow the probe (correlation 0.33), and scaling widened its spreads from
# 0.05-0.16 to 0.27-0.31.  PROBE_REF_S is the probe's typical time on the
# 2-core VM the benchmark was defined on; the `info` line keeps every raw
# value and every probe.
PROBE_REF_S = 0.011


def cpu_probe():
    """Seconds for a fixed pure-Python loop, the fastest of five: a
    stray wake-up of a server or of the collector only slows one."""
    out = []
    for _ in range(5):
        t0 = time.perf_counter()
        s = 0
        for i in range(200000):
            s += i * i
        out.append(time.perf_counter() - t0)
    return min(out)


def at_reference_speed(values, probes, better):
    """Scale every time and rate in `values` to PROBE_REF_S."""
    factor = min(probes) / PROBE_REF_S
    return {m: (v if m == "rss_b_per_node"
                else v * factor if better[m] == "higher" else v / factor)
            for m, v in values.items()}


def start_spinners():
    return [subprocess.Popen([sys.executable, "-c", SPIN, str(os.getpid())])
            for _ in os.sched_getaffinity(0)]


def stop_spinners(procs):
    for p in procs:
        p.kill()
        p.wait()


# ---------------------------------------------------------------------------
# servers


def fs_type(path):
    best, kind = "", "unknown"
    with open("/proc/mounts") as f:
        for line in f:
            parts = line.split()
            mnt = parts[1]
            if (path == mnt or path.startswith(mnt.rstrip("/") + "/")) \
                    and len(mnt) >= len(best):
                best, kind = mnt, parts[2]
    return kind


def rss_bytes(pid):
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) * 1024
    return 0


class Cluster:
    """Two `ruidtool serve` shards and a `ruidtool router`, all with their
    default config, in a fresh directory."""

    def __init__(self, base, ops):
        self.dir = base
        self.ops = ops
        self.procs = []
        self.conns = []
        os.makedirs(base)
        self.t0 = time.perf_counter()
        for i in range(SHARDS):
            self._spawn(f"s{i}", ["serve", "--socket", f"s{i}.sock",
                                  "--data-dir", f"d{i}", "--gen-kind", "none"])
        # The router's default 2 s per-shard deadline also bounds an
        # ADDCHUNK commit, so any document that takes longer to ingest fails
        # through the router with "shard unavailable"; the benchmark's
        # largest document takes longer, hence the one non-default setting.
        args = ["router", "--socket", "r.sock", "--shard-deadline-ms", "60000"]
        for i in range(SHARDS):
            args += ["--shard", f"s{i}.sock"]
        self._spawn("r", args)
        for name, _ in self.procs:
            self._wait_ready(f"{name}.sock")

    def _spawn(self, name, args):
        log = open(os.path.join(self.dir, f"{name}.log"), "w")
        p = subprocess.Popen([RUIDTOOL] + args, cwd=self.dir, stdout=log,
                             stderr=subprocess.STDOUT)
        log.close()
        self.procs.append((name, p))

    def sock(self, name):
        return os.path.join(self.dir, f"{name}.sock")

    def _wait_ready(self, sockname):
        path = os.path.join(self.dir, sockname)
        deadline = time.perf_counter() + READY_DEADLINE_S
        while time.perf_counter() < deadline:
            if os.path.exists(path):
                try:
                    c = Conn(self.rel(path))
                    c.call("PING")
                    c.close()
                    return
                except OSError:
                    pass
            time.sleep(0.0005)
        raise RuntimeError(f"{sockname} did not come up")

    def rel(self, path):
        # socket paths are length-limited; connect relative to the cwd
        return os.path.relpath(path)

    def connect(self, name):
        c = Conn(self.rel(self.sock(name)))
        self.conns.append(c)
        return c

    def pid(self, name):
        return dict(self.procs)[name].pid

    def shard_rss(self):
        return sum(rss_bytes(self.pid(f"s{i}")) for i in range(SHARDS))

    def banners(self):
        out = []
        for name, _ in self.procs:
            with open(os.path.join(self.dir, f"{name}.log")) as f:
                out += [l.strip() for l in f if l.strip()]
        return out

    def stop(self):
        """Close client connections, then SHUTDOWN the router, then the
        shards; a process still alive at the deadline is killed and counted
        as a failed shutdown op."""
        for c in self.conns:
            c.close()
        self.conns = []
        for name, p in reversed(self.procs):  # the router first
            ok = True
            if p.poll() is None:
                try:
                    c = Conn(self.rel(self.sock(name)), timeout=5.0)
                    ok = c.call("SHUTDOWN").startswith("OK")
                    c.close()
                except OSError:
                    ok = False
                try:
                    p.wait(timeout=SHUTDOWN_DEADLINE_S)
                except subprocess.TimeoutExpired:
                    p.kill()
                    p.wait()
                    ok = False
            ok = ok and p.returncode == 0 and not os.path.exists(self.sock(name))
            self.ops.record("shutdown", ok, f"{name} exit {p.returncode}")
        self.procs = []
        shutil.rmtree(self.dir, ignore_errors=True)

    def kill(self):
        for c in self.conns:
            c.close()
        for _, p in self.procs:
            if p.poll() is None:
                p.send_signal(signal.SIGKILL)
            p.wait()
        self.procs = []


# ---------------------------------------------------------------------------
# loading documents


def ship(conn, doc, ops):
    """ADDDOC, or ADDCHUNK for documents over one frame; checks nodes=."""
    with open(doc["path"], "rb") as f:
        xml = f.read()
    name = doc["name"].encode()
    if len(xml) <= MAX_DOC_FRAME:
        kind = "adddoc"
        reply = conn.call(b"ADDDOC " + name + b"\n" + xml)
    else:
        kind = "addchunk"
        off = 0
        while True:
            last = off + CHUNK >= len(xml)
            reply = conn.call(b"ADDCHUNK %s %d %d\n" % (name, off, int(last))
                              + xml[off:off + CHUNK])
            off += CHUNK
            if last or not reply.startswith("OK"):
                break
    ok = reply.startswith("OK") and token(reply, "nodes") == str(doc["nodes"])
    ops.record(kind, ok, f"{doc['name']}: {reply[:120]} (expected nodes="
               f"{doc['nodes']})")
    return ok


def set_up(work, docs, ops, k):
    """Start the cluster and load `docs`; returns (cluster, seconds from
    spawning the servers to the first answered request with the documents
    loaded)."""
    cl = Cluster(os.path.join(work, f"cluster{k}"), ops)
    try:
        c = cl.connect("r")
        for d in docs:
            ship(c, d, ops)
        reply = c.call("DOCS")
        dt = time.perf_counter() - cl.t0
        ops.record("docs", token(reply, "docs") == str(len(docs)), reply)
        c.close()
        cl.conns.remove(c)
        return cl, dt
    except BaseException:
        cl.kill()
        raise


def setups(work, docs, ops, probes):
    """SETUPS set-ups, each after a speed probe; all but the last are
    stopped again."""
    times = []
    for k in range(SETUPS):
        probes.append(cpu_probe())
        cl, dt = set_up(work, docs, ops, k)
        times.append(dt)
        if k < SETUPS - 1:
            cl.stop()
    return cl, times


# ---------------------------------------------------------------------------
# load generators


def closed_loop(conns, streams, seconds, do):
    """Each connection sends its next request when the previous answer is
    in.  Returns the latencies (s) of requests that succeeded."""
    stop = time.perf_counter() + seconds
    lats = [[] for _ in conns]

    def worker(i):
        c, stream = conns[i], streams[i]
        while time.perf_counter() < stop:
            req = next(stream)
            t0 = time.perf_counter()
            ok = do(c, req)
            if ok:
                lats[i].append(time.perf_counter() - t0)

    ths = [threading.Thread(target=worker, args=(i,)) for i in range(len(conns))]
    for t in ths:
        t.start()
    for t in ths:
        t.join()
    return [x for l in lats for x in l]


def open_loop(conns, reqs, dues, do):
    """Request i is due dues[i] seconds after the start; a free connection
    sends it then (or at once if late) and its latency runs from the due
    time, so a stall counts against every request it delays.  Returns
    (latencies, lateness, service times)."""
    t0 = time.perf_counter() + 0.01
    lock = threading.Lock()
    nxt = [0]
    lats, late, svc = [], [], []

    def worker(c):
        while True:
            with lock:
                i = nxt[0]
                nxt[0] += 1
            if i >= len(reqs):
                return
            due = t0 + dues[i]
            now = time.perf_counter()
            if due > now:
                time.sleep(due - now)
            sent = time.perf_counter()
            ok = do(c, reqs[i])
            done = time.perf_counter()
            with lock:
                late.append(sent - due)
                if ok:
                    lats.append(done - due)
                    svc.append(done - sent)

    ths = [threading.Thread(target=worker, args=(c,)) for c in conns]
    for t in ths:
        t.start()
    for t in ths:
        t.join()
    return lats, late, svc


def query_checker(table, doc_names, ops):
    def do(conn, req):
        verb, q, doc = req
        try:
            reply = conn.call(f"{verb} {doc} {q}" if doc else f"{verb} {q}")
        except OSError as e:
            ops.record(verb.lower(), False, str(e))
            return False
        got = counts_of(reply)
        names = [doc] if doc else doc_names
        # COUNT lists every document; QUERY omits those without a match
        absent = 0 if verb.startswith("QUERY") else None
        ok = got is not None and all(got.get(n, absent) == table[(q, n)]
                                     for n in names)
        ops.record(verb.lower(), ok, f"{verb} {doc or ''} {q}: {reply[:100]}")
        return ok
    return do


# ---------------------------------------------------------------------------
# workloads, untraced


def tail_note(n, q):
    """Sample count behind a pooled percentile and how many lie beyond it
    (the tail rule wants at least ten)."""
    return {"samples": n, "beyond": int(n * (1 - q))}


def run_query_mix(ctx):
    docs, ops, seed, seconds = ctx["docs"], ctx["ops"], ctx["seed"], ctx["seconds"]
    names = [d["name"] for d in docs]
    queries = [q for fam in FAMILIES.values() for q in fam] + NUMERIC
    table = oracle(docs, queries, ctx["inputs"])
    cl, setup_times = setups(ctx["work"], docs, ops, ctx["probes"])
    ctx["cluster"] = cl
    conns = [cl.connect("r") for _ in range(CONNECTIONS)]
    do = query_checker(table, names, ops)
    streams = [Draws(seed * 7919 + i, names) for i in range(CONNECTIONS)]
    closed_loop(conns, streams, 1.0, do)  # warm-up: plan cache, GC heap
    closed_s, open_s = 0.4 * seconds, 0.6 * seconds
    draws = Draws(seed * 104729, names)
    closed, lats, late, svc = [], [], [], []
    for _ in range(BLOCKS):
        ctx["probes"].append(cpu_probe())
        closed += closed_loop(conns, streams, closed_s / BLOCKS, do)
        reqs = [next(draws) for _ in range(int(QUERY_RATE * open_s / BLOCKS))]
        lo, la, sv = open_loop(conns, reqs,
                               [i / QUERY_RATE for i in range(len(reqs))], do)
        lats += lo
        late += la
        svc += sv
    rss = cl.shard_rss()
    nodes = sum(d["nodes"] for d in docs)
    p50 = pct(lats, 0.5)
    # the median must sit inside a latency mode, not in a gap between two:
    # some sample must lie within 10% of it
    near = sum(1 for x in lats if abs(x - p50) <= 0.1 * p50)
    ops.record("p50_in_mode", near > 0,
               f"no open-loop latency within 10% of the p50 {p50 * 1e3:.3f} ms")
    ctx["info"].update(
        closed_loop_s=closed_s, open_loop_s=open_s, offered_rate=QUERY_RATE,
        # due -> sent (queueing for a connection + the client's own delay)
        # and sent -> answered, the parts of the open-loop latency
        open_late_ms={q: round(pct(late, q) * 1e3, 3) for q in (0.5, 0.9, 0.99)},
        open_service_ms={q: round(pct(svc, q) * 1e3, 3) for q in (0.5, 0.9)},
        p50_neighbours_within_10pct=near,
        samples={"ops_per_s": len(closed),
                 "op_p50_ms": tail_note(len(lats), 0.5),
                 "op_p90_ms": tail_note(len(lats), 0.9),
                 "setup_s": len(setup_times), "rss_b_per_node": 1})
    return {"setup_s": statistics.median(setup_times),
            "rss_b_per_node": rss / nodes,
            "ops_per_s": len(closed) / closed_s,
            "op_p50_ms": p50 * 1e3,
            "op_p90_ms": pct(lats, 0.9) * 1e3}


def read_ranks(inputs, hot):
    with open(os.path.join(inputs, hot + ".ranks")) as f:
        return [int(l) for l in f if l.strip()]


def writer_pairs(conn, rng, ranks, ops, stop_at, lats, via=""):
    """INSERT p 0 m / DELETE p+1 pairs until stop_at; the document's size
    stays flat.  A pair always completes."""
    while time.perf_counter() < stop_at:
        p = rng.choice(ranks)
        for req in (f"UPDATE {via}INSERT {p} 0 m", f"UPDATE {via}DELETE {p + 1}"):
            t0 = time.perf_counter()
            try:
                reply = conn.call(req)
            except OSError as e:
                reply = f"ERR {e}"
            dt = time.perf_counter() - t0
            ok = reply.startswith("OK") and token(reply, "seq") is not None
            ops.record("update", ok, f"{req}: {reply[:100]}")
            if ok:
                lats.append(dt)


def end_checks(conn, hot, start_counts, ops):
    reply = conn.call(f"CHECK {hot}")
    ops.record("check", reply.startswith("OK") and "consistent" in reply, reply)
    reply = conn.call("COUNT //*")
    ops.record("count_all", counts_of(reply) == start_counts,
               f"{reply[:200]} (start {start_counts})")


def run_update_mix(ctx):
    docs, ops, seed, seconds = ctx["docs"], ctx["ops"], ctx["seed"], ctx["seconds"]
    hot = ctx["hot"]
    hot_doc = [d for d in docs if d["name"] == hot]
    table = oracle(hot_doc, READER_QUERIES, ctx["inputs"])
    ranks = read_ranks(ctx["inputs"], hot)
    cl, setup_times = setups(ctx["work"], docs, ops, ctx["probes"])
    ctx["cluster"] = cl
    wconn, rconn = cl.connect("r"), cl.connect("r")
    start_counts = counts_of(wconn.call("COUNT //*"))
    wrng, rrng = random.Random(seed * 31 + 1), random.Random(seed * 31 + 2)

    read = query_checker(table, [hot], ops)

    def reader(stop_at, lats):
        while time.perf_counter() < stop_at:
            time.sleep(rrng.uniform(*READ_THINK_S))
            t0 = time.perf_counter()
            if read(rconn, ("COUNTD", rrng.choice(READER_QUERIES), hot)):
                lats.append(time.perf_counter() - t0)

    def phase(sec, u, r):
        stop_at = time.perf_counter() + sec
        ths = [threading.Thread(target=writer_pairs,
                                args=(wconn, wrng, ranks, ops, stop_at, u),
                                kwargs={"via": f"{hot} "}),
               threading.Thread(target=reader, args=(stop_at, r))]
        for t in ths:
            t.start()
        for t in ths:
            t.join()

    phase(1.0, [], [])  # warm-up
    upd, rd = [], []
    wall = 0.0
    for _ in range(BLOCKS):  # blocks only to interleave the speed probes
        ctx["probes"].append(cpu_probe())
        t0 = time.perf_counter()
        phase(seconds / BLOCKS, upd, rd)
        wall += time.perf_counter() - t0
    rss = cl.shard_rss()
    end_checks(wconn, hot, start_counts, ops)
    nodes = sum(d["nodes"] for d in docs)
    ctx["info"].update(
        # Not end-to-end metrics: over three 10-run sets their spreads
        # were 0.25/0.11/0.26 (p50) and 0.27/0.23/0.30 (p90), from how
        # often the writer's next update overtook a waiting read at the
        # router's shard connection.  router.hop_ms (--trace 1) measures
        # the blocking instead.
        read_ms={"p50": pct(rd, 0.5) * 1e3, "p90": pct(rd, 0.9) * 1e3,
                 "samples": len(rd)},
        samples={"ops_per_s": len(upd),
                 "op_p50_ms": tail_note(len(upd), 0.5),
                 "op_p90_ms": tail_note(len(upd), 0.9),
                 "setup_s": len(setup_times), "rss_b_per_node": 1})
    return {"setup_s": statistics.median(setup_times),
            "rss_b_per_node": rss / nodes,
            "ops_per_s": len(upd) / wall,
            "op_p50_ms": pct(upd, 0.5) * 1e3,
            "op_p90_ms": pct(upd, 0.9) * 1e3}


def ingest_pass(cl, conns, docs, ops):
    """One connection per shard ships that shard's documents through the
    router, largest first, like `ruidtool ingest`'s per-shard buckets: a
    shard builds one document at a time, so a document's time does not
    depend on which others it overlapped with.  Returns (pass seconds,
    {document: seconds})."""
    took = {}

    def worker(c, mine):
        for d in sorted(mine, key=lambda d: -d["bytes"]):
            t0 = time.perf_counter()
            ship(c, d, ops)
            took[d["name"]] = time.perf_counter() - t0

    t0 = time.perf_counter()
    ths = [threading.Thread(target=worker, args=(
        c, [d for d in docs if shard_of(d["name"]) == i]))
        for i, c in enumerate(conns)]
    for t in ths:
        t.start()
    for t in ths:
        t.join()
    return time.perf_counter() - t0, took


def base_and_corpus(docs):
    base = [d for d in docs if d["name"].startswith("base")]
    return base, [d for d in docs if d not in base]


def run_ingest(ctx):
    """Pass after pass until the run's seconds are used, each into a fresh
    cluster holding only the base documents: the shards do not give back a
    dropped document's memory, and over five passes into one cluster their
    RSS grew from ~1.1 to ~3.5 KB per hosted node (~2 GB).  Each pass's
    set-up is a setup_s sample.  An op is one shipped document: ops_per_s
    is documents per second of a pass, op_p50_ms / op_p90_ms are the
    percentiles of one pass's eleven document times (the sixth and the
    tenth fastest); each is the median over the passes.  The corpus's
    sizes are fixed, so documents per second moves with MB/s, which the
    `info` line gives with the largest document's time.  Not scaled to the
    reference speed (see PROBE_REF_S)."""
    ops, seconds = ctx["ops"], ctx["seconds"]
    base, docs = base_and_corpus(ctx["docs"])
    total = sum(d["bytes"] for d in docs)
    nodes = sum(d["nodes"] for d in docs)
    hosted = nodes + sum(d["nodes"] for d in base)
    largest = max(docs, key=lambda d: d["bytes"])["name"]
    setup_times, walls, tooks, rsss = [], [], [], []
    t_end = time.perf_counter() + seconds
    while True:
        cl, dt = set_up(ctx["work"], base, ops, len(walls))
        ctx["cluster"] = cl
        setup_times.append(dt)
        conns = [cl.connect("r") for _ in range(CONNECTIONS)]
        wall, took = ingest_pass(cl, conns, docs, ops)
        walls.append(wall)
        tooks.append(took)
        rsss.append(cl.shard_rss() / hosted)
        if time.perf_counter() >= t_end:
            break  # main() stops the last cluster
        cl.stop()
    ctx["info"].update(
        passes=len(walls), corpus_docs=len(docs), corpus_bytes=total,
        corpus_nodes=nodes, largest=largest,
        mb_s_by_pass=[round(total / w / 1e6, 3) for w in walls],
        largest_s_by_pass=[round(t[largest], 3) for t in tooks],
        doc_ms={d["name"]: [round(t[d["name"]] * 1e3, 1) for t in tooks]
                for d in docs},
        rss_b_per_node_by_pass=[round(x) for x in rsss],
        samples={"ops_per_s": len(walls), "op_p50_ms": len(walls),
                 "op_p90_ms": len(walls), "setup_s": len(setup_times),
                 "rss_b_per_node": len(rsss)})
    return {
        "setup_s": statistics.median(setup_times),
        "rss_b_per_node": statistics.median(rsss),
        "ops_per_s": statistics.median(len(docs) / w for w in walls),
        "op_p50_ms": statistics.median(
            pct(list(t.values()), 0.5) for t in tooks) * 1e3,
        "op_p90_ms": statistics.median(
            pct(list(t.values()), 0.9) for t in tooks) * 1e3,
    }


# ---------------------------------------------------------------------------
# traced run: per-layer metrics


def med_ms(xs):
    return statistics.median(xs) * 1e3


def hop_pair(router, direct, req, ops):
    """One request via the router and once direct to the owning shard;
    returns both latencies.  The two answers must be OK and count alike."""
    v, q, d = req
    r_via, t_via = router.timed(f"{v} {d} {q}")
    r_dir, t_dir = direct[shard_of(d)].timed(f"{v} {d} {q}")
    got = counts_of(r_via)
    ok = got is not None and got == counts_of(r_dir)
    ops.record("hop_probe", ok, f"{v} {d} {q}: {r_via[:80]} / {r_dir[:80]}")
    return t_via, t_dir


def timed_many(conn, req, reps):
    out = []
    for _ in range(reps):
        reply, dt = conn.timed(req)
        if not reply.startswith("OK"):
            raise RuntimeError(f"{req}: {reply[:120]}")
        out.append(dt)
    return out


def stats_counters(cl):
    tot = {"wal_batches": 0, "wal_records": 0, "areas_rebuilt": 0,
           "publish_full": 0}
    for i in range(SHARDS):
        c = cl.connect(f"s{i}")
        reply = c.call("STATS")
        for k in tot:
            v = token(reply, k)
            tot[k] += int(v) if v is not None else 0
    return {
        "wal.batches": tot["wal_batches"],
        "wal.mean_batch": tot["wal_records"] / max(1, tot["wal_batches"]),
        "snapshot.areas_rebuilt": tot["areas_rebuilt"],
        "snapshot.publish_full": tot["publish_full"],
    }


def run_trace(ctx):
    workload, docs, ops, seed = (ctx["workload"], ctx["docs"], ctx["ops"],
                                 ctx["seed"])
    hot = ctx["hot"]
    names = [d["name"] for d in docs]
    inputs = ctx["inputs"]
    ranks = read_ranks(inputs, hot)
    # documents the read probes use: the XMark ones (all of the
    # workload's own for query_mix / update_mix)
    read_docs = [d for d in docs if d["kind"] == "xmark" and d["bytes"] < 1e6]
    read_names = [d["name"] for d in read_docs]
    if workload == "query_mix":
        stream = Draws(seed * 7919, names)
        draws = [next(stream) for _ in range(1500)]
    elif workload == "update_mix":
        rng = random.Random(seed * 31 + 2)
        draws = [("COUNTD", rng.choice(READER_QUERIES), hot) for _ in range(200)]
    else:
        draws = []
    # the probes join every workload's draws, so that each shows a cache
    # miss and an engine fallback
    draws += [("COUNT", q, None) for q in PROBE_QUERIES]
    single = [(v, q, d) for v, q, d in draws if d is not None][:60] or \
        [("COUNTD", q, hot) for q in PROBE_QUERIES]
    cl = None
    metrics = {}
    try:
        if workload == "ingest":
            base, corpus = base_and_corpus(docs)
            cl, _ = set_up(ctx["work"], base, ops, 0)
            ctx["cluster"] = cl
            conns = [cl.connect("r") for _ in range(CONNECTIONS)]
            ingest_pass(cl, conns, corpus, ops)
        else:
            cl, _ = set_up(ctx["work"], docs, ops, 0)
            ctx["cluster"] = cl
        router = cl.connect("r")
        direct = [cl.connect(f"s{i}") for i in range(SHARDS)]
        start_counts = counts_of(router.call("COUNT //*"))
        # router hop: the same requests via the router and direct to the
        # owning shard, alternating; update_mix keeps its writer running
        via, dir_ = [], []
        if workload == "update_mix":
            wconn = cl.connect("r")
            stop_at = time.perf_counter() + 4.0
            writer = threading.Thread(
                target=writer_pairs,
                args=(wconn, random.Random(seed * 31 + 1), ranks, ops, stop_at, []),
                kwargs={"via": f"{hot} "})
            writer.start()
            reps = 0
            think = random.Random(seed * 31 + 3)
            while time.perf_counter() < stop_at:
                # the reader's think time, so that the probe lands at
                # random points of the writer's rhythm (see READ_THINK_S)
                time.sleep(think.uniform(*READ_THINK_S))
                t_via, t_dir = hop_pair(router, direct, single[reps % len(single)],
                                        ops)
                via.append(t_via)
                dir_.append(t_dir)
                reps += 1
            writer.join()
        else:
            for _ in range(3):
                for req in single:
                    t_via, t_dir = hop_pair(router, direct, req, ops)
                    via.append(t_via)
                    dir_.append(t_dir)
        metrics["router.hop_ms"] = med_ms(via) - med_ms(dir_)
        metrics["router.hop_share"] = metrics["router.hop_ms"] / med_ms(via)
        # scatter: collection COUNT via the router minus the slowest shard
        sc = []
        for q in PROBE_QUERIES:
            r = med_ms(timed_many(router, f"COUNT {q}", 15))
            s = max(med_ms(timed_many(direct[i], f"COUNT {q}", 15))
                    for i in range(SHARDS))
            sc.append(r - s)
        metrics["router.scatter_ms"] = statistics.median(sc)
        # service round trip: direct COUNTD minus in-process eval_read
        rtt_reqs = [(q, d) for q in PROBE_QUERIES for d in read_names[:2]]
        rtt_direct = [med_ms(timed_many(direct[shard_of(d)], f"COUNTD {d} {q}", 25))
                      for q, d in rtt_reqs]
        # write path through the shard, for the write stage coverage
        upd = []
        writer_pairs(direct[shard_of(hot)], random.Random(seed), ranks, ops,
                     time.perf_counter() + 2.0, upd, via=f"{hot} ")
        end_checks(router, hot, start_counts, ops)
        metrics.update(stats_counters(cl))
        cl.stop()
        cl = None
    finally:
        if cl is not None:
            cl.kill()
    # in-process layers
    tw = os.path.join(ctx["work"], "trace")
    os.makedirs(tw)
    spec = [f"work\t{tw}"]
    kept = set(read_names)
    spec += [f"doc\t{d['name']}\t{d['kind']}\t{d['path']}\t"
             f"{int(d['name'] in kept)}" for d in docs]
    probe_specs = [(f"probe_{k}", k, p, DEEP_SEEDS["deep_a"] if k == "deep" else seed)
                   for k, p in (("xmark", "2.5"), ("dblp", "800"), ("deep", "10000"))
                   if k not in {d["kind"] for d in docs}]
    if probe_specs:
        for row in generate(probe_specs, None, inputs):
            spec.append(f"probe\t{row['kind']}\t{row['path']}")
    spec.append("classdocs\t" + "\t".join(read_names[:2]))
    for cls, fam in FAMILIES.items():
        for q in fam[:4]:
            spec.append(f"class\t{cls}\t{q}")
    for q in NUMERIC[::256]:
        spec.append(f"class\tfallback\t{q}")
    for v, q, d in draws:
        if d is None or d in kept:
            spec.append(f"draw\t{d or '*'}\t{q}")
    for q, d in rtt_reqs:
        spec.append(f"rtt\t{d}\t{q}")
    spec.append(f"hot\t{hot}\t10\t{seed}")
    spec.append(f"curve\t{seed}")
    spec_file = os.path.join(tw, "trace.spec")
    with open(spec_file, "w") as f:
        f.write("\n".join(spec) + "\n")
    p = subprocess.run([PBTOOL, "trace", spec_file], stdout=subprocess.PIPE,
                       text=True)
    if p.returncode != 0:
        fail("pbtool trace failed", 4)
    inproc = {}
    for l in p.stdout.splitlines():
        k, v = l.split("\t")
        inproc[k] = float(v)
    metrics["service.rtt_ms"] = statistics.median(
        rtt_direct[i] - inproc[f"rtt.{i}"] for i in range(len(rtt_reqs)))
    for k, v in inproc.items():
        if k.startswith("snapshot.nodes_"):
            ctx["info"][k] = v
        elif not k.startswith("rtt."):
            metrics[k] = v
    metrics["write.stage_cover"] = (
        inproc["wal.apply_ms"] + inproc["wal.append_ms"]
        + inproc["snapshot.advance_ms"]) / med_ms(upd)
    ctx["info"]["update_direct_ms"] = med_ms(upd)
    return metrics


# ---------------------------------------------------------------------------


def provenance(seed, workload, work):
    def cmd(args):
        try:
            return subprocess.run(args, cwd=ROOT, stdout=subprocess.PIPE,
                                  stderr=subprocess.DEVNULL, text=True,
                                  timeout=10).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            return ""
    digest = hashlib.sha256()
    for d in ("lib", "bin"):
        for dirpath, _, files in sorted(os.walk(os.path.join(ROOT, d))):
            for f in sorted(files):
                if f.endswith((".ml", ".mli")) or f == "dune":
                    with open(os.path.join(dirpath, f), "rb") as fh:
                        digest.update(f.encode() + b"\0" + fh.read())
    return {
        "workload": workload, "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "ocaml": cmd(["ocamlfind", "ocamlopt", "-version"]) or
        cmd(["ocamlopt", "-version"]),
        "git_revision": (cmd(["git", "rev-parse", "HEAD"])
                         if os.path.isdir(os.path.join(ROOT, ".git")) else "")
        or "none",
        "source_sha256": digest.hexdigest()[:16],
        "data_dir_fs": fs_type(os.path.realpath(work)),
        "flush_policy": "server default: one fsync per commit batch "
                        "(commit batch 64, commit interval 0)",
        "server_config": "ruidtool serve defaults (--gen-kind none); router "
                         "defaults but --shard-deadline-ms 60000",
        "connections": CONNECTIONS,
        "idle_spinners": len(os.sched_getaffinity(0)),
        "offered_rate": QUERY_RATE if workload == "query_mix" else None,
        "read_think_s": READ_THINK_S if workload == "update_mix" else None,
    }


RUNNERS = {"query_mix": run_query_mix, "update_mix": run_update_mix,
           "ingest": run_ingest}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(RUNNERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    build()
    work = os.path.join(WORK_ROOT, f"run-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    inputs = os.path.join(work, "inputs")
    os.makedirs(inputs)
    os.chdir(work)
    ops = Ops()
    docs_spec, hot = workload_docs(a.workload, a.seed)
    ctx = {"workload": a.workload, "seed": a.seed, "seconds": a.seconds,
           "ops": ops, "work": work, "inputs": inputs, "hot": hot,
           "info": provenance(a.seed, a.workload, work), "cluster": None,
           "probes": []}
    spinners = start_spinners()
    try:
        ctx["docs"] = generate(docs_spec, hot, inputs)
        if a.trace:
            values = run_trace(ctx)
            wanted = [m["name"] for m in bench["per_layer"]]
        else:
            raw = RUNNERS[a.workload](ctx)
            values = at_reference_speed(
                raw, ctx["probes"],
                {m["name"]: m["better"] for m in bench["end_to_end"]}
            ) if ctx["probes"] else raw
            wanted = [m["name"] for m in bench["end_to_end"]]
            ctx["info"].update(
                raw=raw, probe_ref_s=PROBE_REF_S,
                probes_s=[round(x, 5) for x in ctx["probes"]])
            cl = ctx["cluster"]
            ctx["info"]["servers"] = cl.banners()
            cl.stop()
    finally:
        if ctx["cluster"] is not None and ctx["cluster"].procs:
            ctx["cluster"].kill()
        stop_spinners(spinners)
        os.chdir(ROOT)
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass
    attempted, failed = ops.totals()
    missing = [m for m in wanted if m not in values]
    bad = [m for m in wanted if m in values and values[m] != values[m]]
    ctx["info"]["ops"] = {k: {"attempted": a_, "failed": f}
                          for k, (a_, f) in sorted(ops.kinds.items())}
    if ops.errors:
        ctx["info"]["errors"] = ops.errors
    print("info " + json.dumps(ctx["info"], sort_keys=True))
    if missing or bad:
        print(f"perfbench: metrics missing {missing} or not a number {bad}",
              file=sys.stderr)
    result = {
        "correct": failed == 0 and not missing and not bad,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": values[m], "unit": units[m]}
                    for m in wanted if m in values and m not in bad},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
