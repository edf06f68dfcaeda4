//! One benchmark run: start the server, set up, replay the measured
//! rounds over one connection, check every reply, kill and recover, and
//! report the metrics.

use crate::check::Checker;
use crate::gen::{Check, Kind, Op, Workload};
use crate::layers;
use crate::server::{stat, verb_series, Client, Server};
use crate::Args;
use indord_server::protocol::Response;
use std::collections::HashMap;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Kill/restart cycles; `recovery_s` is the fastest. Restart times on
/// `disjunctive-rw` range over 270–560 ms within one run, and the fastest
/// of many moves least between runs (README, "One run").
const RESTARTS: usize = 25;

/// The printed result.
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    pub fn json(&self) -> String {
        let m: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}", num(*v)))
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            m.join(", ")
        )
    }
}

fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}

/// What a `TRACE` reply reported about one request.
#[derive(Debug, Clone, Default)]
pub struct Traced {
    pub write: bool,
    pub route: Option<String>,
    pub total_ns: u64,
    pub rtt_ns: u64,
    pub phases: Vec<(String, u64)>,
    pub states: u64,
    pub pair_hits: u64,
    pub pair_misses: u64,
}

fn parse_trace(body: &str) -> (Traced, String) {
    let mut t = Traced::default();
    let mut outcome = String::new();
    for line in body.lines() {
        let (key, rest) = line.split_once(' ').unwrap_or((line, ""));
        let n = || rest.trim().parse::<u64>().unwrap_or(0);
        match key {
            "route" => t.route = Some(rest.to_string()),
            "outcome" => outcome = rest.to_string(),
            "total_ns" => t.total_ns = n(),
            "phase" => {
                if let Some((p, v)) = rest.split_once(' ') {
                    t.phases.push((p.to_string(), v.parse().unwrap_or(0)));
                }
            }
            "states_expanded" => t.states = n(),
            "pair_hits" => t.pair_hits = n(),
            "pair_misses" => t.pair_misses = n(),
            _ => {}
        }
    }
    (t, outcome)
}

/// Where the plain replay stood after one round: operations and seconds
/// (less checking) since it began, and reads recorded so far.
#[derive(Debug, Clone, Copy)]
struct Mark {
    ops: u64,
    secs: f64,
    reads: usize,
}

/// Client-side counts the server's own counters must agree with.
#[derive(Debug, Default, Clone)]
struct Counts {
    verbs: HashMap<&'static str, u64>,
    queries: u64,
    prepared_hits: u64,
    facts: u64,
    atoms: u64,
}

struct Runner {
    w: Workload,
    c: Client,
    trace: bool,
    /// The first failed check, if any.
    wrong: Option<String>,
    failed: u64,
    chk: Checker,
    reads_us: Vec<f64>,
    writes_us: Vec<f64>,
    traced: Vec<Traced>,
    counts: Counts,
    check_time: Duration,
    /// Measured read latencies by class (verb, form and query), for the
    /// per-class summary on stderr.
    classes: HashMap<String, Vec<f64>>,
    /// One per measured round of the plain (untraced) rounds.
    marks: Vec<Mark>,
}

impl Runner {
    fn wrong(&mut self, msg: String) {
        if self.wrong.is_none() {
            eprintln!("indord-tcpbench: check failed: {msg}");
            self.wrong = Some(msg);
        }
    }

    /// Sends `op` (wrapped in `TRACE` on a traced run, except
    /// `COUNTERMODEL`, whose word is checked), checks the reply and
    /// applies an acknowledged write to the model. Returns the
    /// client-observed latency.
    fn exec(&mut self, op: &Op, db: usize) -> Result<Duration, String> {
        let wrap = self.trace && op.kind != Kind::Countermodel;
        let (resp, rtt) = self.send(&op.line, wrap, op.kind == Kind::Fact)?;
        let t = Instant::now();
        if let Response::Error(e) = &resp {
            eprintln!("indord-tcpbench: `{:.60}` failed: {e}", op.line);
            self.failed += 1;
        } else {
            if db == self.w.main {
                self.count(op);
            }
            if let Err(msg) = self.chk.reply(op, db, &resp) {
                self.wrong(format!("`{:.80}`: {msg}", op.line));
            }
        }
        self.check_time += t.elapsed();
        Ok(rtt)
    }

    /// Sends `line`, wrapped in `TRACE` when `wrap`; records the trace
    /// and returns the reply the request itself gave.
    fn send(
        &mut self,
        line: &str,
        wrap: bool,
        write: bool,
    ) -> Result<(Response, Duration), String> {
        if !wrap {
            return self.c.call(line);
        }
        let (resp, rtt) = self.c.call(&format!("TRACE {line}"))?;
        let Response::Trace(body) = resp else {
            return Err(format!(
                "`TRACE {line:.60}` answered {}",
                resp.render().trim_end()
            ));
        };
        let (mut tr, outcome) = parse_trace(&body);
        tr.write = write;
        tr.rtt_ns = rtt.as_nanos() as u64;
        if tr.total_ns > tr.rtt_ns {
            self.wrong(format!(
                "TRACE total_ns {} exceeds the observed {} ns for `{line:.60}`",
                tr.total_ns, tr.rtt_ns
            ));
        }
        self.traced.push(tr);
        let resp = Response::parse_line(&outcome)
            .ok_or_else(|| format!("unparseable TRACE outcome `{outcome}`"))?;
        Ok((resp, rtt))
    }

    fn count(&mut self, op: &Op) {
        let c = &mut self.counts;
        *c.verbs.entry(op.kind.verb()).or_default() += 1;
        let entries = match &op.check {
            Check::Batch(q) => q.len() as u64,
            _ => 1,
        };
        match op.kind {
            Kind::Fact => {
                c.facts += 1;
                if let Check::Inserted(n) = op.check {
                    c.atoms += n;
                }
            }
            _ => {
                c.queries += entries;
                if op.prepared {
                    c.prepared_hits += entries;
                }
            }
        }
    }

    /// A set-up or measured write, timed into `writes_us`.
    fn write(&mut self, op: &Op, db: usize) -> Result<(), String> {
        let rtt = self.exec(op, db)?;
        self.writes_us.push(rtt.as_secs_f64() * 1e6);
        Ok(())
    }

    fn select(&mut self, db: usize) -> Result<(), String> {
        let name = self.w.model.dbs[db].name.clone();
        self.c.ok(&format!("USE {name}")).map(|_| ())
    }

    /// Loads database `db` in `chunk`-point fragments and prepares its
    /// queries. Writes to the main database are timed (and traced).
    fn load(&mut self, db: usize, lines: Vec<String>) -> Result<(), String> {
        let name = self.w.model.dbs[db].name.clone();
        self.c.ok(&format!("OPEN {name}"))?;
        let decl = self.w.model.declarations();
        self.c.ok(&decl)?;
        let timed = db == self.w.main;
        for line in lines {
            if timed {
                let atoms = line.matches(';').count() as u64;
                let op = Op {
                    line,
                    kind: Kind::Fact,
                    prepared: false,
                    check: Check::Inserted(atoms),
                    write: None,
                };
                self.write(&op, db)?;
            } else {
                self.c.ok(&line)?;
            }
        }
        Ok(())
    }

    /// Registers every query of `db`. A `PREPARE` is a write (WAL
    /// record, publish, registry pre-run): on the main database it is
    /// timed into `writes_us`.
    fn prepare_all(&mut self, db: usize) -> Result<(), String> {
        let timed = db == self.w.main;
        for qid in self.w.model.queries_of(db) {
            let q = &self.w.model.queries[qid];
            let line = format!("PREPARE {}: {}", q.name, q.text);
            let (resp, rtt) = self.send(&line, timed && self.trace, true)?;
            if !matches!(resp, Response::Ok(_)) {
                return Err(format!(
                    "`{line:.60}` answered {}",
                    resp.render().trim_end()
                ));
            }
            if timed {
                self.writes_us.push(rtt.as_secs_f64() * 1e6);
            }
        }
        Ok(())
    }

    /// The verdicts of every query registered on `db`, in one `BATCH`.
    fn batch_all(&mut self, db: usize) -> Result<Vec<(String, bool)>, String> {
        self.select(db)?;
        let names: Vec<String> = self
            .w
            .model
            .queries_of(db)
            .iter()
            .map(|&q| self.w.model.queries[q].name.clone())
            .collect();
        match self.c.call(&format!("BATCH {}", names.join(" ")))?.0 {
            Response::Verdicts(vs) => Ok(vs),
            other => Err(format!("BATCH answered {}", other.render().trim_end())),
        }
    }

    /// Loads every database from `loads` (its `FACT` lines, by index),
    /// runs the set-up writes, prepares the registry and warms it up.
    fn setup(&mut self, mut loads: Vec<Vec<String>>) -> Result<(), String> {
        let main = self.w.main;
        let main_lines = std::mem::take(&mut loads[main]);
        // Side databases first: small, untimed writes.
        for (db, lines) in loads.into_iter().enumerate() {
            if db == main {
                continue;
            }
            self.load(db, lines)?;
            self.prepare_all(db)?;
        }
        self.load(main, main_lines)?;
        for (line, atoms, write) in self.w.setup_writes.clone() {
            let op = Op {
                line,
                kind: Kind::Fact,
                prepared: false,
                check: Check::Inserted(atoms),
                write: Some(write),
            };
            self.write(&op, main)?;
        }
        self.prepare_all(main)?;
        // Warm-up: every prepared query of the main database once.
        for qid in self.w.model.queries_of(main) {
            let op = Op {
                line: format!("ENTAIL {}", self.w.model.queries[qid].name),
                kind: Kind::Entail,
                prepared: true,
                check: Check::Verdict(qid),
                write: None,
            };
            self.exec(&op, main)?;
        }
        Ok(())
    }

    /// Replays `rounds` of the measured sequence against the main
    /// database, recording read and write latencies and one mark per
    /// round. Returns the number of operations and the elapsed time less
    /// the client's own checking.
    fn replay(&mut self, rounds: Range<usize>) -> Result<(u64, f64), String> {
        let main = self.w.main;
        self.check_time = Duration::ZERO;
        let mut ops = 0u64;
        let t = Instant::now();
        for round in rounds {
            for op in self.w.round(round) {
                let rtt = self.exec(&op, main)?;
                let us = rtt.as_secs_f64() * 1e6;
                if op.is_read() {
                    self.reads_us.push(us);
                    let class = self.class(&op);
                    self.classes.entry(class).or_default().push(us);
                } else {
                    self.writes_us.push(us);
                }
                ops += 1;
            }
            if !self.trace {
                self.marks.push(Mark {
                    ops,
                    secs: (t.elapsed() - self.check_time).as_secs_f64(),
                    reads: self.reads_us.len(),
                });
            }
        }
        Ok((ops, (t.elapsed() - self.check_time).as_secs_f64()))
    }

    /// The class a measured read is summarised under.
    fn class(&self, op: &Op) -> String {
        let form = if op.prepared { "" } else { " inline" };
        match &op.check {
            Check::Verdict(q) | Check::Countermodel(q) => {
                format!("{}{form} {}", op.kind.verb(), self.w.model.queries[*q].name)
            }
            _ => op.kind.verb().to_string(),
        }
    }

    /// Prints each read class's share, median and p99 to stderr.
    fn print_classes(&self) {
        let total = self.reads_us.len().max(1) as f64;
        let mut cs: Vec<_> = self.classes.iter().collect();
        cs.sort_by(|a, b| quantile(a.1, 0.5).total_cmp(&quantile(b.1, 0.5)));
        for (name, v) in cs {
            eprintln!(
                "indord-tcpbench: {name:32} {:6.2}% of reads, p50 {:9.1} us, p99 {:9.1} us",
                100.0 * v.len() as f64 / total,
                quantile(v, 0.5),
                quantile(v, 0.99)
            );
        }
    }

    /// Checks outside the timed sequence: the side databases against
    /// the enumeration oracle.
    fn side_checks(&mut self) -> Result<(), String> {
        for db in 0..self.w.model.dbs.len() {
            if db == self.w.main {
                continue;
            }
            let qids = self.w.model.queries_of(db);
            let qs: Vec<_> = qids
                .iter()
                .map(|&q| self.w.model.queries[q].q.clone())
                .collect();
            let want = crate::model::certain_by_enumeration(&self.w.model.dbs[db].dag, &qs);
            let got = self.batch_all(db)?;
            let batch = Op {
                line: "BATCH".into(),
                kind: Kind::Batch,
                prepared: true,
                check: Check::Batch(qids.clone()),
                write: None,
            };
            if let Err(msg) = self.chk.reply(&batch, db, &Response::Verdicts(got.clone())) {
                self.wrong(format!("BATCH on {}: {msg}", self.w.model.dbs[db].name));
            }
            for ((name, v), w) in got.iter().zip(&want) {
                if v != w {
                    self.wrong(format!(
                        "{name} on {}: served {v}, oracle {w}",
                        self.w.model.dbs[db].name
                    ));
                }
            }
            // The inline form must agree with the prepared one. Traced on
            // a traced run: these reads cover every route family,
            // `!=` included, on every workload.
            for (&qid, w) in qids.iter().zip(&want) {
                let line = format!("ENTAIL {}", self.w.model.queries[qid].text);
                match self.send(&line, self.trace, false)?.0 {
                    Response::Verdict(v) if v == *w => {}
                    other => self.wrong(format!(
                        "inline {} answered {}, oracle {w}",
                        self.w.model.queries[qid].name,
                        other.render().trim_end()
                    )),
                }
            }
        }
        self.select(self.w.main)
    }
}

/// Sizes of every file under `dir`, and of the snapshot files alone.
fn disk_bytes(dir: &Path) -> (u64, u64) {
    let (mut all, mut snaps) = (0, 0);
    if let Ok(entries) = std::fs::read_dir(dir) {
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                let (a, s) = disk_bytes(&p);
                all += a;
                snaps += s;
            } else if let Ok(md) = e.metadata() {
                all += md.len();
                if p.extension().is_some_and(|x| x == "snap") {
                    snaps += md.len();
                }
            }
        }
    }
    (all, snaps)
}

fn mean_by<T>(v: &[T], f: impl Fn(&T) -> f64) -> f64 {
    mean(&v.iter().map(f).collect::<Vec<_>>())
}

fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

fn median(v: impl Iterator<Item = f64>) -> f64 {
    let mut s: Vec<f64> = v.collect();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Splits the plain replay, as recorded in `marks` (one per round),
/// into `k` equal slices of rounds, and gives each slice's throughput
/// (ops/s), mean read latency and read p99 (µs).
fn slices(marks: &[Mark], reads_us: &[f64], k: usize) -> Vec<(f64, f64, f64)> {
    let n = marks.len();
    if n == 0 {
        return Vec::new();
    }
    let k = k.clamp(1, n);
    let mut prev = Mark {
        ops: 0,
        secs: 0.0,
        reads: 0,
    };
    let mut out = Vec::with_capacity(k);
    for i in 1..=k {
        let m = marks[i * n / k - 1];
        let reads = &reads_us[prev.reads..m.reads];
        out.push((
            (m.ops - prev.ops) as f64 / (m.secs - prev.secs),
            mean(reads),
            quantile(reads, 0.99),
        ));
        prev = m;
    }
    out
}

/// The `q`-quantile by the nearest-rank method.
fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

pub fn run(args: &Args) -> Result<Report, String> {
    let w = Workload::new(&args.workload, args.seed)
        .ok_or_else(|| format!("unknown workload `{}`", args.workload))?;
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| ".bench_build".into());
    let data: PathBuf = Path::new(&target).join("tcpbench-data").join(format!(
        "{}-{}",
        args.workload,
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&data);
    std::fs::create_dir_all(&data).map_err(|e| format!("{}: {e}", data.display()))?;
    let result = run_in(args, w, &data);
    let _ = std::fs::remove_dir_all(&data);
    result
}

fn run_in(args: &Args, w: Workload, data: &Path) -> Result<Report, String> {
    let chk = Checker::new(w.model.clone());
    let loads: Vec<Vec<String>> = (0..w.model.dbs.len())
        .map(|db| {
            let chunk = if db == w.main { w.load_chunk } else { 64 };
            w.model.load_lines(db, chunk)
        })
        .collect();
    let server = Server::start(&args.server, data)?;
    let c = Client::connect(&server.addr)?;
    let mut r = Runner {
        chk,
        w,
        c,
        trace: args.trace,
        wrong: None,
        failed: 0,
        reads_us: Vec::new(),
        writes_us: Vec::new(),
        traced: Vec::new(),
        counts: Counts::default(),
        check_time: Duration::ZERO,
        classes: HashMap::new(),
        marks: Vec::new(),
    };
    r.setup(loads)?;
    // One cold set-up, from the benchmark process's start: the client's
    // own input generation, spawning the server, loading and warming.
    let setup_s = args.started.elapsed().as_secs_f64();
    let main = r.w.main;
    let rounds = r.w.rounds(args.seconds);
    // A traced run sends the same rounds, the last quarter of them
    // wrapped in `TRACE`: the plain rounds give the transport, CPU and
    // fault figures without the tracer's own cost in them.
    let traced_rounds = if args.trace {
        (rounds / 4).max(rounds.min(16))
    } else {
        0
    };
    let plain_rounds = rounds - traced_rounds;

    // Measured phase.
    let (stats0, metrics0, proc0) = (r.c.stats()?, r.c.metrics()?, server.proc_stats());
    let counts0 = r.counts.clone();
    // Set-up replies are checked too, but only measured requests count.
    r.failed = 0;
    r.trace = false;
    let (mut ops, elapsed) = r.replay(0..plain_rounds)?;
    r.trace = args.trace;
    let plain_reads = r.reads_us.len();
    let (metrics_plain, proc_plain) = (r.c.metrics()?, server.proc_stats());
    let plain_ops = ops.max(1) as f64;
    eprintln!(
        "indord-tcpbench: {ops} ops in {elapsed:.3} s ({:.1} ops/s), server {:.1} us CPU and {:.2} minor faults per op",
        ops as f64 / elapsed,
        (proc_plain.cpu_us - proc0.cpu_us) / plain_ops,
        proc_plain.minflt.saturating_sub(proc0.minflt) as f64 / plain_ops
    );
    let sl = slices(&r.marks, &r.reads_us, r.w.slices);
    if sl.len() > 1 {
        let v: Vec<String> = sl.iter().map(|s| format!("{:.0}", s.0)).collect();
        eprintln!("indord-tcpbench: ops/s by slice: {}", v.join(" "));
    }
    if traced_rounds > 0 {
        let (n, e) = r.replay(plain_rounds..rounds)?;
        eprintln!(
            "indord-tcpbench: {n} ops in {e:.3} s ({:.1} ops/s, traced)",
            n as f64 / e
        );
        ops += n;
    }
    let (stats1, metrics1) = (r.c.stats()?, r.c.metrics()?);
    r.print_classes();

    // The server's counters must agree with what the client sent.
    let name = r.w.model.dbs[main].name.clone();
    for verb in ["fact", "entail", "countermodel", "batch"] {
        let sent = r.counts.verbs.get(verb).copied().unwrap_or(0)
            - counts0.verbs.get(verb).copied().unwrap_or(0);
        let seen = verb_series(&metrics1, &name, verb, "count")
            - verb_series(&metrics0, &name, verb, "count");
        if sent != seen {
            r.wrong(format!(
                "METRICS counts {seen} `{verb}` requests, the client sent {sent}"
            ));
        }
    }
    let delta = |k: &str| stat(&stats1, k) - stat(&stats0, k);
    for (key, sent) in [
        ("queries", r.counts.queries - counts0.queries),
        (
            "prepared_hits",
            r.counts.prepared_hits - counts0.prepared_hits,
        ),
        ("wal_appends", r.counts.facts - counts0.facts),
    ] {
        if delta(key) != sent {
            r.wrong(format!(
                "STATS {key} moved by {}, the client sent {sent}",
                delta(key)
            ));
        }
    }
    if stat(&stats1, "atoms") != r.counts.atoms {
        r.wrong(format!(
            "STATS atoms={} but the acknowledged writes inserted {}",
            stat(&stats1, "atoms"),
            r.counts.atoms
        ));
    }

    r.side_checks()?;
    let (disk, snapshot_bytes) = disk_bytes(data);
    let all_writes = r.writes_us.len().max(1) as f64;
    let before_kill = r.batch_all(main)?;
    let peak_rss_mib = server.proc_stats().hwm_kib as f64 / 1024.0;
    let first = r.w.model.queries[r.w.model.queries_of(main)[0]]
        .name
        .clone();

    // kill -9, then time recovery to the first answered prepared read,
    // `RESTARTS` times, each checked against the state before the first
    // kill; the fastest is kept (see `RESTARTS`).
    let mut server = server;
    let mut recoveries = Vec::new();
    for _ in 0..RESTARTS {
        server.kill();
        let t = Instant::now();
        server = Server::start(&args.server, data)?;
        r.c = Client::connect(&server.addr)?;
        r.select(main)?;
        match r.c.call(&format!("ENTAIL {first}"))?.0 {
            Response::Verdict(_) => {}
            other => {
                return Err(format!(
                    "first read after restart: {}",
                    other.render().trim_end()
                ))
            }
        }
        recoveries.push(t.elapsed().as_secs_f64());
        let atoms = stat(&r.c.stats()?, "atoms");
        if atoms != stat(&stats1, "atoms") {
            r.wrong(format!(
                "restart recovered {atoms} atoms of {}",
                stat(&stats1, "atoms")
            ));
        }
        if r.batch_all(main)? != before_kill {
            r.wrong("registry verdicts changed across the restart".into());
        }
    }
    server.kill();
    let ms: Vec<String> = recoveries.iter().map(|s| format!("{:.0}", s * 1e3)).collect();
    eprintln!("indord-tcpbench: restarts took {} ms", ms.join(" "));
    let recovery_s = recoveries.iter().copied().fold(f64::INFINITY, f64::min);
    let mut metrics: Vec<(String, f64, &'static str)> = Vec::new();
    let mut put = |n: &str, v: f64, u: &'static str| metrics.push((n.to_string(), v, u));
    if !args.trace {
        put("setup_s", setup_s, "s");
        put("ops_per_s", median(sl.iter().map(|s| s.0)), "ops/s");
        put("read_p99_us", median(sl.iter().map(|s| s.2)), "us");
        put("read_mean_us", median(sl.iter().map(|s| s.1)), "us");
        put("write_mean_us", mean(&r.writes_us), "us");
        put("recovery_s", recovery_s, "s");
        put("peak_rss_mib", peak_rss_mib, "MiB");
        put("disk_bytes_per_write", disk as f64 / all_writes, "bytes");
    } else {
        let reads_t: Vec<&Traced> = r.traced.iter().filter(|t| !t.write).collect();
        let writes_t: Vec<&Traced> = r.traced.iter().filter(|t| t.write).collect();
        // Over the plain rounds: the client's mean read round trip less
        // the server's mean handling time (`METRICS` duration sums).
        let (mut handle_ns, mut handled) = (0, 0);
        for verb in ["entail", "countermodel", "batch"] {
            let d = |series| {
                verb_series(&metrics_plain, &name, verb, series)
                    - verb_series(&metrics0, &name, verb, series)
            };
            handle_ns += d("sum");
            handled += d("count");
        }
        put(
            "transport.rtt_minus_handle_us",
            mean(&r.reads_us[..plain_reads]) - handle_ns as f64 / handled.max(1) as f64 / 1e3,
            "us",
        );
        let route_of = |route: &str| -> Vec<&Traced> {
            reads_t
                .iter()
                .copied()
                .filter(|t| t.route.as_deref() == Some(route))
                .collect()
        };
        let (dis, ne) = (route_of("disjunctive"), route_of("ne"));
        put(
            "search.states_per_read",
            mean_by(&dis, |t| t.states as f64),
            "count",
        );
        put(
            "search.pair_hits_per_read",
            mean_by(&dis, |t| t.pair_hits as f64),
            "count",
        );
        put(
            "search.pair_misses_per_read",
            mean_by(&dis, |t| t.pair_misses as f64),
            "count",
        );
        put(
            "search.ne_states_per_read",
            mean_by(&ne, |t| t.states as f64),
            "count",
        );
        for phase in [
            "queue_wait",
            "classify",
            "apply",
            "wal_append",
            "fsync",
            "publish",
        ] {
            let phase_us = |t: &&Traced| {
                let ns = t
                    .phases
                    .iter()
                    .find(|(p, _)| p == phase)
                    .map_or(0, |(_, ns)| *ns);
                ns as f64 / 1e3
            };
            put(
                &format!("commit.{phase}_us"),
                mean_by(&writes_t, phase_us),
                "us",
            );
        }
        let facts = r.counts.facts.max(1) as f64;
        put(
            "session.cache_drops_per_write",
            stat(&stats1, "cache_drops") as f64 / facts,
            "count",
        );
        put(
            "session.in_place_patches_per_write",
            stat(&stats1, "in_place_patches") as f64 / facts,
            "count",
        );
        put(
            "session.scaffold_builds_per_write",
            stat(&stats1, "scaffold_builds") as f64 / facts,
            "count",
        );
        let appends = stat(&stats1, "wal_appends").max(1) as f64;
        put(
            "wal.bytes_per_write",
            stat(&stats1, "wal_bytes") as f64 / appends,
            "bytes",
        );
        put(
            "wal.fsyncs_per_write",
            stat(&stats1, "fsyncs") as f64 / appends,
            "count",
        );
        put("snapshot.bytes", snapshot_bytes as f64, "bytes");
        put(
            "server.cpu_us_per_op",
            (proc_plain.cpu_us - proc0.cpu_us) / plain_ops,
            "us",
        );
        put(
            "server.minflt_per_op",
            proc_plain.minflt.saturating_sub(proc0.minflt) as f64 / plain_ops,
            "count",
        );
        for (n, v, u) in layers::measure(&mut r.w, data, rounds)? {
            put(&n, v, u);
        }
    }
    Ok(Report {
        correct: r.wrong.is_none(),
        attempted: ops,
        failed: r.failed,
        metrics,
    })
}
