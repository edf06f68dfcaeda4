//! The in-process half of the traced run: timers around calls into
//! each layer's public functions, on the database the TCP run left on
//! disk.

use crate::gen::{Kind, Workload, Write};
use indord_core::atom::Term;
use indord_core::parse::{parse_database, parse_query_expr_in};
use indord_core::session::Session;
use indord_core::sym::Vocabulary;
use indord_entail::engine::Engine;
use indord_entail::route;
use indord_server::durable::StorageConfig;
use indord_server::protocol::Request;
use indord_server::runtime::{Conn, Registry};
use indord_storage::DbDir;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

type Metric = (String, f64, &'static str);

/// Mean of the samples under each key.
#[derive(Default)]
struct Timings(BTreeMap<&'static str, (f64, u64)>);

impl Timings {
    fn add(&mut self, key: &'static str, us: f64) {
        let e = self.0.entry(key).or_default();
        e.0 += us;
        e.1 += 1;
    }

    fn mean(&self, key: &str) -> f64 {
        self.0.get(key).map_or(0.0, |&(s, n)| s / n.max(1) as f64)
    }
}

fn us(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

/// Runs the in-process legs against the data directory `data` (the
/// server is stopped) and returns their metrics. `next_round` is the
/// first round the TCP run did not replay.
pub fn measure(w: &mut Workload, data: &Path, next_round: usize) -> Result<Vec<Metric>, String> {
    let mut t = Timings::default();
    let main_name = w.model.dbs[w.main].name.clone();

    // Recovery: the storage scan, then the whole boot.
    let start = Instant::now();
    for db in &w.model.dbs {
        DbDir::open(data.join(&db.name))
            .and_then(|d| d.recover())
            .map_err(|e| format!("recover {}: {e}", db.name))?;
    }
    let scan_ms = us(start) / 1e3;
    let start = Instant::now();
    let registry = Arc::new(
        Registry::with_storage(StorageConfig::new(data)).map_err(|e| format!("boot: {e}"))?,
    );
    let boot_ms = us(start) / 1e3;

    // Protocol and dispatch: replay rounds the TCP run did not send.
    let mut conn = Conn::new(Arc::clone(&registry));
    conn.handle_line(&format!("USE {main_name}"));
    let mut replayed = 0;
    let mut writes: Vec<(String, Write)> = Vec::new();
    let mut round = next_round;
    while replayed < 200 {
        for op in w.round(round) {
            let start = Instant::now();
            let parsed = Request::parse_with_deadline(&op.line);
            t.add("parse", us(start));
            parsed.map_err(|e| format!("`{:.60}` does not parse: {e}", op.line))?;
            let start = Instant::now();
            let resp = conn.handle_line(&op.line);
            let verb = match op.kind {
                Kind::Entail => "entail",
                Kind::Countermodel => "countermodel",
                Kind::Batch => "batch",
                Kind::Fact => "fact",
            };
            t.add(verb, us(start));
            let start = Instant::now();
            let text = resp.render();
            t.add("render", us(start));
            drop(text);
            if let Some(wr) = op.write {
                writes.push((op.line, wr));
            }
            replayed += 1;
        }
        round += 1;
    }
    // Read-only workloads: patchable label writes on known points.
    if writes.is_empty() {
        let db = &w.model.dbs[w.main];
        let pred = w.model.preds.name(0).to_string();
        for i in 0..32 {
            let c = db.consts[i * db.consts.len() / 32].clone();
            writes.push((format!("FACT {pred}({c});"), Write::Label(c, 1)));
        }
        for (line, _) in &writes {
            let start = Instant::now();
            conn.handle_line(line);
            t.add("fact", us(start));
        }
    }

    // Plan, routes, parse, scaffold and session legs on the pinned
    // snapshot of each database.
    for (i, db) in w.model.dbs.iter().enumerate() {
        let Some(handle) = registry.get(&db.name) else {
            return Err(format!("{} did not recover", db.name));
        };
        let snap = handle.read_snapshot().ok_or("no snapshot")?;
        let voc = snap.vocabulary();
        let engine = Engine::new(voc);
        let reps = if i == w.main { 3 } else { 20 };
        for qid in w.model.queries_of(i) {
            let q = &w.model.queries[qid];
            let dnf = parse_query_expr_in(voc, &q.text)
                .and_then(|e| e.to_dnf(voc))
                .map_err(|e| format!("{}: {e}", q.name))?;
            if i == w.main {
                for _ in 0..20 {
                    let start = Instant::now();
                    let pq = engine.prepare(&dnf).map_err(|e| e.to_string())?;
                    t.add("prepare", us(start));
                    drop(pq);
                }
            }
            let pq = snap.prepared(&q.name).ok_or("query not in the registry")?;
            for _ in 0..reps {
                let _ = route::take();
                let start = Instant::now();
                engine
                    .entails_prepared(snap.session(), pq)
                    .map_err(|e| format!("{}: {e}", q.name))?;
                let el = us(start);
                let key = match route::take().map(|r| r.as_str()) {
                    Some("seq") => "seq",
                    Some("paths") => "paths",
                    Some("bounded-width") => "bounded",
                    Some("disjunctive") => "disjunctive",
                    Some("ne") => "ne",
                    _ => "other",
                };
                t.add(key, el);
            }
        }
    }

    let handle = registry.get(&main_name).ok_or("main database missing")?;
    let snap = handle.read_snapshot().ok_or("no snapshot")?;
    let text = snap
        .session()
        .database()
        .display(snap.vocabulary())
        .to_string();
    let start = Instant::now();
    let mut fresh_voc = Vocabulary::new();
    parse_database(&mut fresh_voc, &text).map_err(|e| e.to_string())?;
    let load_ms = us(start) / 1e3;

    let voc = snap.vocabulary();
    let cold = Session::new(snap.session().database().clone());
    let start = Instant::now();
    cold.disjunctive_scaffold(voc).map_err(|e| e.to_string())?;
    let build_ms = us(start) / 1e3;

    // Session patches and publishes on a warm copy of the snapshot.
    let mut voc = voc.clone();
    let mut session = snap.session().freeze();
    session
        .disjunctive_scaffold(&voc)
        .map_err(|e| e.to_string())?;
    let pred = |voc: &Vocabulary, l: u64| -> Result<_, String> {
        let name = w.model.preds.name(l.trailing_zeros() as usize);
        voc.find_pred(name)
            .ok_or_else(|| format!("unknown predicate {name}"))
    };
    let ord = |voc: &mut Vocabulary, name: &str| voc.ord(name);
    for (_, wr) in &writes {
        let start = Instant::now();
        match wr {
            Write::Label(c, l) => {
                let (p, u) = (pred(&voc, *l)?, ord(&mut voc, c));
                session
                    .insert_fact(&voc, p, vec![Term::Ord(u)])
                    .map_err(|e| e.to_string())?;
            }
            Write::Edge(a, b) => {
                let (u, v) = (ord(&mut voc, a), ord(&mut voc, b));
                session.assert_lt(u, v);
            }
            Write::Fresh {
                after,
                name,
                labels,
            } => {
                let (u, v) = (ord(&mut voc, after), ord(&mut voc, name));
                session.assert_lt(u, v);
                let p = pred(&voc, *labels)?;
                session
                    .insert_fact(&voc, p, vec![Term::Ord(v)])
                    .map_err(|e| e.to_string())?;
            }
        }
        t.add("patch", us(start));
        let start = Instant::now();
        let frozen = session.freeze();
        t.add("freeze", us(start));
        drop(frozen);
    }
    drop(conn);
    registry.shutdown_dbs();

    Ok(vec![
        ("protocol.parse_us".into(), t.mean("parse"), "us"),
        ("protocol.render_us".into(), t.mean("render"), "us"),
        ("dispatch.entail_us".into(), t.mean("entail"), "us"),
        (
            "dispatch.countermodel_us".into(),
            t.mean("countermodel"),
            "us",
        ),
        ("dispatch.batch_us".into(), t.mean("batch"), "us"),
        ("dispatch.fact_us".into(), t.mean("fact"), "us"),
        ("plan.prepare_us".into(), t.mean("prepare"), "us"),
        ("route.seq_us".into(), t.mean("seq"), "us"),
        ("route.paths_us".into(), t.mean("paths"), "us"),
        ("route.bounded_width_us".into(), t.mean("bounded"), "us"),
        ("route.disjunctive_us".into(), t.mean("disjunctive"), "us"),
        ("route.ne_us".into(), t.mean("ne"), "us"),
        ("scaffold.build_ms".into(), build_ms, "ms"),
        ("session.patch_us".into(), t.mean("patch"), "us"),
        ("session.freeze_us".into(), t.mean("freeze"), "us"),
        ("recovery.scan_ms".into(), scan_ms, "ms"),
        ("recovery.boot_ms".into(), boot_ms, "ms"),
        ("parse.load_ms".into(), load_ms, "ms"),
    ])
}
