//! Prepared vs. unprepared evaluation on repeated-query workloads.
//!
//! The serving pattern the prepare/execute split targets: a fixed set of
//! queries evaluated over and over against one database. The unprepared
//! path re-runs N1/N2 normalization, the monadic-view construction, and
//! full query compilation on every call; the prepared path pays for both
//! once (`Engine::prepare` + a warm `Session`) and then only evaluates.
//!
//! The `ne-*` groups are the §7 `!=`-heavy workloads: queries with `!=`
//! atoms (expanded at prepare time, evaluated on the session scaffold)
//! and databases with `!=` constraints (evaluated through the
//! sub-scaffold projection). Their one-shot leg re-expands and rebuilds
//! a scaffold per call — exactly what the scaffold-routed §7 paths
//! amortize away.
//!
//! The `read-write` group is the mixed serving workload: every iteration
//! performs one write (a label-only fact insert or an acyclic cross-chain
//! order edge) followed by one prepared disjunctive evaluation. The
//! `incremental` leg runs the default session (the scaffold survives the
//! write via incremental closure/topo/pair-table maintenance); the
//! `rebuild` leg pins the pre-incremental behavior
//! (`Session::with_scaffold_rebuild_on_write`) where every write drops
//! the scaffold and the next read pays a full rebuild. The group's
//! recorded figures are *steady state* — criterion's long loop keeps
//! inserting genuinely new edges, so the graph densifies far beyond any
//! single serving window; the `rw-speedup-summary` report line measures
//! the same op stream over a warm serving window instead (that is the
//! ≥ 20x acceptance number). The `eviction` group measures the
//! `Session::with_max_pairs` bound (LRU eviction + transparent
//! recompute) against an unbounded table.
//!
//! The `serving-mvcc` group measures the snapshot-isolated server core
//! through the wire `Conn`: write latency while a slow reader holds a
//! 25ms view (the countermodel-enumeration stand-in), client read
//! p50/p99 under a sustained write storm, and a multi-writer burst whose
//! STATS delta shows group-commit coalescing.
//!
//! The final groups print the measured speedups explicitly — the
//! acceptance targets are ≥ 2× for the `[<,<=]` serving mix, ≥ 10× for
//! the `!=`-heavy workloads, ≥ 20× for incremental scaffold
//! maintenance vs drop-and-rebuild on the read/write mix, all at
//! |D| ≈ 1k, and for the MVCC group ≥ 2 fragments per group commit on
//! the burst.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use indord_bench::workloads;
use indord_core::atom::Term;
use indord_core::database::Database;
use indord_core::parse::parse_query;
use indord_core::query::DnfQuery;
use indord_core::session::Session;
use indord_core::sym::Vocabulary;
use indord_entail::{Engine, PreparedQuery};
use std::time::Duration;

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .measurement_time(Duration::from_millis(500))
        .warm_up_time(Duration::from_millis(100))
}

/// The disjunctive shape of the serving mix — also the workload of the
/// `prepared/serving` protocol-overhead measurements (index 2 of
/// [`query_mix`]).
const DISJUNCTIVE_QUERY: &str = "(exists s. P0(s) & P1(s)) | exists s t. P0(s) & s < t & P2(t)";

/// The query mix of a plausible monitoring service: sequential,
/// branching, and disjunctive shapes over three monadic predicates.
fn query_mix(voc: &mut Vocabulary) -> Vec<DnfQuery> {
    [
        "exists a b c. P0(a) & a < b & P1(b) & b <= c & P2(c)",
        "exists a b c. P0(a) & a < b & P1(b) & a < c & P2(c)",
        DISJUNCTIVE_QUERY,
    ]
    .iter()
    .map(|t| parse_query(voc, t).expect("well-formed query"))
    .collect()
}

fn setup(len: usize) -> (Vocabulary, Database, Vec<DnfQuery>) {
    let mut voc = Vocabulary::new();
    let mut rng = workloads::rng(0x5EED + len as u64);
    let db = workloads::observers_database(&mut voc, &mut rng, 2, len / 2, 3, 0.2);
    let queries = query_mix(&mut voc);
    (voc, db, queries)
}

/// The §7 query mix: `!=` atoms in sequential, chained, and disjunctive
/// positions — each expands into 2–3 `[<,<=]` disjuncts at prepare time.
fn ne_query_mix(voc: &mut Vocabulary) -> Vec<DnfQuery> {
    [
        "exists s t. P0(s) & P1(t) & s != t",
        "exists s t u. P0(s) & s != t & P1(t) & t <= u & P2(u)",
        "(exists s t. P0(s) & P2(t) & s != t) | exists s. P0(s) & P1(s) & P2(s)",
    ]
    .iter()
    .map(|t| parse_query(voc, t).expect("well-formed != query"))
    .collect()
}

/// A `[<,<=]` database with `!=`-heavy queries (the query-`!=` route).
fn setup_ne_query(len: usize) -> (Vocabulary, Database, Vec<DnfQuery>) {
    let mut voc = Vocabulary::new();
    let mut rng = workloads::rng(0x7EED + len as u64);
    let db = workloads::observers_database(&mut voc, &mut rng, 2, len / 2, 3, 0.2);
    let queries = ne_query_mix(&mut voc);
    (voc, db, queries)
}

/// A database carrying `!=` constraints (the sub-scaffold route): every
/// monadic query — with or without its own `!=` atoms — evaluates
/// through the restricted Theorem 5.3 search.
fn setup_ne_db(len: usize) -> (Vocabulary, Database, Vec<DnfQuery>) {
    let mut voc = Vocabulary::new();
    let mut rng = workloads::rng(0x8EED + len as u64);
    let mut db = workloads::observers_database(&mut voc, &mut rng, 2, len / 2, 3, 0.2);
    workloads::add_ne_pairs(&mut voc, &mut db, &mut rng, 2, len / 2, 8);
    let mut queries = ne_query_mix(&mut voc);
    queries.push(
        parse_query(
            &mut voc,
            "(exists s. P0(s) & P1(s)) | exists s t. P0(s) & s < t & P2(t)",
        )
        .expect("well-formed disjunction"),
    );
    (voc, db, queries)
}

fn bench_repeated_queries(c: &mut Criterion) {
    let mut g = c.benchmark_group("prepared/repeat");
    for len in [64usize, 256, 1024] {
        let (voc, db, queries) = setup(len);
        let eng = Engine::new(&voc);
        let q = &queries[0];
        g.throughput(Throughput::Elements(db.len() as u64));
        g.bench_with_input(BenchmarkId::new("unprepared", len), &db, |b, db| {
            b.iter(|| eng.entails(db, q).unwrap())
        });
        let session = Session::new(db.clone());
        let pq = eng.prepare(q).unwrap();
        g.bench_with_input(BenchmarkId::new("prepared", len), &session, |b, session| {
            b.iter(|| eng.entails_prepared(session, &pq).unwrap())
        });
    }
    g.finish();
}

/// The §7 `!=`-heavy repeated-query workloads: `ne-query` exercises
/// query-side `!=` expansion on a `[<,<=]` database, `ne-db` the
/// sub-scaffold-restricted search on a `!=` database. The unprepared leg
/// is the one-shot §7 path (re-expansion + fresh scaffold per call).
fn bench_ne_workloads(c: &mut Criterion) {
    for (group, setup_fn) in [
        (
            "prepared/ne-query",
            setup_ne_query as fn(usize) -> (Vocabulary, Database, Vec<DnfQuery>),
        ),
        ("prepared/ne-db", setup_ne_db),
    ] {
        let mut g = c.benchmark_group(group);
        for len in [256usize, 1024] {
            let (voc, db, queries) = setup_fn(len);
            let eng = Engine::new(&voc);
            let q = &queries[0];
            g.throughput(Throughput::Elements(db.len() as u64));
            g.bench_with_input(BenchmarkId::new("one-shot", len), &db, |b, db| {
                b.iter(|| eng.entails(db, q).unwrap())
            });
            let session = Session::new(db.clone());
            let pq = eng.prepare(q).unwrap();
            g.bench_with_input(BenchmarkId::new("prepared", len), &session, |b, session| {
                b.iter(|| eng.entails_prepared(session, &pq).unwrap())
            });
            // The whole != mix as a prepared batch on one warm session.
            let prepared: Vec<PreparedQuery> =
                queries.iter().map(|q| eng.prepare(q).unwrap()).collect();
            g.bench_with_input(BenchmarkId::new("batch", len), &session, |b, session| {
                b.iter(|| eng.entails_batch(session, &prepared).unwrap())
            });
        }
        g.finish();
    }
}

/// One write of the read/write serving mix, resolved against the
/// `observers_database` naming scheme (`t{chain}_{i}`, preds `P0..P2`).
/// Every third write is an acyclic chain0 → chain1 order edge; the rest
/// are label-only fact inserts. All edges point the same direction, so
/// the stream never closes a cycle and the in-place patch always
/// applies; the edge keyspace walks all `chain_len²` cross pairs so a
/// long measurement loop keeps issuing *new* edges (genuine incremental
/// maintenance) instead of saturating into deduplicated no-op writes.
fn apply_write(session: &mut Session, voc: &Vocabulary, len: usize, step: usize) {
    let chain_len = len / 2;
    if step.is_multiple_of(3) {
        let k = step / 3;
        let i = k % chain_len;
        let j = (k / chain_len + k) % chain_len;
        let u = voc.find_ord(&format!("t0_{i}")).expect("chain constant");
        let v = voc.find_ord(&format!("t1_{j}")).expect("chain constant");
        session.assert_le(u, v);
    } else {
        let p = voc.find_pred(&format!("P{}", step % 3)).expect("pred");
        let t = voc
            .find_ord(&format!("t{}_{}", step % 2, (step * 7) % chain_len))
            .expect("chain constant");
        session
            .insert_fact(voc, p, vec![Term::Ord(t)])
            .expect("fact");
    }
}

/// Interleaved write/read serving: one mutation + one prepared
/// disjunctive evaluation per iteration, incremental scaffold
/// maintenance vs the historical drop-and-rebuild baseline.
fn bench_read_write(c: &mut Criterion) {
    let mut g = c.benchmark_group("prepared/read-write");
    for len in [256usize, 1024] {
        let (voc, db, queries) = setup(len);
        let eng = Engine::new(&voc);
        let q = &queries[2]; // the disjunctive shape — it drives the scaffold
        let pq = eng.prepare(q).unwrap();
        for (leg, rebuild) in [("incremental", false), ("rebuild", true)] {
            let mut session = Session::new(db.clone()).with_scaffold_rebuild_on_write(rebuild);
            let _ = eng.entails_prepared(&session, &pq).unwrap(); // warm
            let mut step = 0usize;
            g.throughput(Throughput::Elements(db.len() as u64));
            g.bench_with_input(BenchmarkId::new(leg, len), &(), |b, _unit| {
                b.iter(|| {
                    apply_write(&mut session, &voc, len, step);
                    step += 1;
                    eng.entails_prepared(&session, &pq).unwrap()
                })
            });
        }
    }
    g.finish();
}

/// The pair-table growth bound: a `with_max_pairs`-capped session serving
/// the full query mix (evictions + transparent recomputes every
/// acquisition) against the unbounded default.
fn bench_eviction(c: &mut Criterion) {
    let mut g = c.benchmark_group("prepared/eviction");
    for len in [1024usize] {
        let (voc, db, queries) = setup(len);
        let eng = Engine::new(&voc);
        let prepared: Vec<PreparedQuery> =
            queries.iter().map(|q| eng.prepare(q).unwrap()).collect();
        for (leg, cap) in [
            ("unbounded", None),
            ("cap-64", Some(64)),
            ("cap-8", Some(8)),
        ] {
            let mut session = Session::new(db.clone());
            if let Some(cap) = cap {
                session = session.with_max_pairs(cap);
            }
            let _ = eng.entails_batch(&session, &prepared).unwrap(); // warm
            g.bench_with_input(BenchmarkId::new(leg, len), &session, |b, session| {
                b.iter(|| eng.entails_batch(session, &prepared).unwrap())
            });
        }
    }
    g.finish();
}

/// A warm in-process protocol connection serving `db` with
/// [`DISJUNCTIVE_QUERY`] prepared as `disj` — the shared setup of the
/// `prepared/serving` group and the `serving-summary` report.
fn serving_conn(voc: &Vocabulary, db: &Database) -> indord_server::runtime::Conn {
    use indord_server::runtime::{Conn, Registry};
    use std::sync::Arc;
    let registry = Arc::new(Registry::new());
    registry.install("bench", voc.clone(), db.clone());
    let mut conn = Conn::new(registry);
    conn.handle_line("USE bench");
    conn.handle_line(&format!("PREPARE disj: {DISJUNCTIVE_QUERY}"));
    conn.handle_line("ENTAIL disj"); // warm
    conn
}

/// The serving-path overhead: the same prepared disjunctive evaluation
/// through the in-process wire-protocol dispatcher (`Conn::handle_line`
/// — request parse, db read lock, stats counters, latency ring) vs a
/// direct `entails_prepared` call. Target: < 2x.
fn bench_serving(c: &mut Criterion) {
    let mut g = c.benchmark_group("prepared/serving");
    {
        let len = 1024usize;
        let (voc, db, queries) = setup(len);
        let eng = Engine::new(&voc);
        let session = Session::new(db.clone());
        let pq = eng.prepare(&queries[2]).unwrap();
        let _ = eng.entails_prepared(&session, &pq).unwrap(); // warm
        g.bench_with_input(BenchmarkId::new("direct", len), &(), |b, _| {
            b.iter(|| eng.entails_prepared(&session, &pq).unwrap())
        });
        let mut conn = serving_conn(&voc, &db);
        g.bench_with_input(BenchmarkId::new("protocol", len), &(), |b, _| {
            b.iter(|| conn.handle_line("ENTAIL disj"))
        });
    }
    g.finish();
}

/// A warm protocol connection over a fresh in-memory registry, kept
/// alongside it so other threads can open their own connections.
fn serving_conn_shared(
    voc: &Vocabulary,
    db: &Database,
) -> (
    std::sync::Arc<indord_server::runtime::Registry>,
    indord_server::runtime::Conn,
) {
    use indord_server::runtime::{Conn, Registry};
    use std::sync::Arc;
    let registry = Arc::new(Registry::new());
    registry.install("bench", voc.clone(), db.clone());
    let mut conn = Conn::new(Arc::clone(&registry));
    conn.handle_line("USE bench");
    conn.handle_line(&format!("PREPARE disj: {DISJUNCTIVE_QUERY}"));
    conn.handle_line("ENTAIL disj"); // warm
    (registry, conn)
}

fn bench_query_mix_batch(c: &mut Criterion) {
    let mut g = c.benchmark_group("prepared/batch");
    for len in [256usize, 1024] {
        let (voc, db, queries) = setup(len);
        let eng = Engine::new(&voc);
        g.bench_with_input(BenchmarkId::new("unprepared-loop", len), &db, |b, db| {
            b.iter(|| {
                queries
                    .iter()
                    .map(|q| eng.entails(db, q).unwrap().holds())
                    .collect::<Vec<_>>()
            })
        });
        let session = Session::new(db.clone());
        let prepared: Vec<PreparedQuery> =
            queries.iter().map(|q| eng.prepare(q).unwrap()).collect();
        g.bench_with_input(BenchmarkId::new("batch", len), &session, |b, session| {
            b.iter(|| eng.entails_batch(session, &prepared).unwrap())
        });
    }
    g.finish();
}

/// Prints the end-to-end speedups on the serving workload (the ≥ 2×
/// acceptance target reads off the per-query lines: repeated evaluation
/// of a fixed query against a fixed database).
fn report_speedup(_c: &mut Criterion) {
    let (voc, db, queries) = setup(1024);
    let eng = Engine::new(&voc);
    let iters = if criterion::is_smoke() { 3 } else { 30 };
    let session = Session::new(db.clone());
    let prepared: Vec<PreparedQuery> = queries.iter().map(|q| eng.prepare(q).unwrap()).collect();
    let _ = eng.entails_batch(&session, &prepared).unwrap(); // warm
    let shapes = ["sequential", "branching", "disjunctive"];
    let mut best = (0.0f64, "");
    for ((q, pq), shape) in queries.iter().zip(&prepared).zip(shapes) {
        let unprep = workloads::time_median(iters, || {
            let _ = eng.entails(&db, q).unwrap();
        });
        let prep = workloads::time_median(iters, || {
            let _ = eng.entails_prepared(&session, pq).unwrap();
        });
        let speedup = unprep.as_secs_f64() / prep.as_secs_f64().max(1e-12);
        if speedup > best.0 {
            best = (speedup, shape);
        }
        println!(
            "prepared/speedup/{shape:<12} unprepared: {unprep:>12?}  prepared: {prep:>12?}  speedup: {speedup:.1}x"
        );
    }
    // The mixed batch: evaluation cost of the heavy disjunctive query
    // dominates both paths, so the amortized gain is smaller.
    let unprepared = workloads::time_median(iters, || {
        for q in &queries {
            let _ = eng.entails(&db, q).unwrap();
        }
    });
    let prepared_t = workloads::time_median(iters, || {
        let _ = eng.entails_batch(&session, &prepared).unwrap();
    });
    let speedup = unprepared.as_secs_f64() / prepared_t.as_secs_f64().max(1e-12);
    println!(
        "prepared/speedup/mix-batch    unprepared: {unprepared:>12?}  prepared: {prepared_t:>12?}  speedup: {speedup:.1}x"
    );
    // The ≥2x acceptance target is for repeated evaluation of a fixed
    // query; the mixed batch above is dominated by the disjunctive
    // query's inherent Thm 5.3 evaluation cost on both paths.
    println!(
        "prepared/speedup-summary      best repeated single-query speedup: {:.1}x ({}) — target >= 2x: {}",
        best.0,
        best.1,
        if best.0 >= 2.0 { "MET" } else { "NOT MET" }
    );

    // The §7 `!=`-heavy workloads at |D| ≈ 1k: scaffold-routed prepared
    // evaluation vs the one-shot §7 path (per-call expansion + scaffold
    // build). Acceptance target: ≥ 10x on the best shape of *each*
    // group — a regression in either the query-`!=` expansion route or
    // the db-`!=` sub-scaffold route must show as NOT MET.
    let mut group_bests: Vec<(&str, f64)> = Vec::new();
    for (group, setup_fn) in [
        (
            "ne-query",
            setup_ne_query as fn(usize) -> (Vocabulary, Database, Vec<DnfQuery>),
        ),
        ("ne-db", setup_ne_db),
    ] {
        let (voc, db, queries) = setup_fn(1024);
        let eng = Engine::new(&voc);
        let session = Session::new(db.clone());
        let prepared: Vec<PreparedQuery> =
            queries.iter().map(|q| eng.prepare(q).unwrap()).collect();
        let _ = eng.entails_batch(&session, &prepared).unwrap(); // warm
        let mut group_best = 0.0f64;
        for (i, (q, pq)) in queries.iter().zip(&prepared).enumerate() {
            let one_shot = workloads::time_median(iters, || {
                let _ = eng.entails(&db, q).unwrap();
            });
            let prep = workloads::time_median(iters, || {
                let _ = eng.entails_prepared(&session, pq).unwrap();
            });
            let speedup = one_shot.as_secs_f64() / prep.as_secs_f64().max(1e-12);
            let shape = format!("{group}/q{i}");
            group_best = group_best.max(speedup);
            println!(
                "prepared/speedup/{shape:<12} one-shot:   {one_shot:>12?}  prepared: {prep:>12?}  speedup: {speedup:.1}x"
            );
        }
        group_bests.push((group, group_best));
    }
    let all_met = group_bests.iter().all(|&(_, s)| s >= 10.0);
    let detail: Vec<String> = group_bests
        .iter()
        .map(|(g, s)| format!("{g} {s:.1}x"))
        .collect();
    println!(
        "prepared/ne-speedup-summary   best per != group: {} — target >= 10x in every group: {}",
        detail.join(", "),
        if all_met { "MET" } else { "NOT MET" }
    );

    // Warm-across-writes: the read/write serving mix (one write + one
    // prepared disjunctive evaluation per iteration) at |D| = 1024,
    // incremental scaffold maintenance vs drop-and-rebuild. Acceptance
    // target: ≥ 20x.
    let (voc, db, queries) = setup(1024);
    let eng = Engine::new(&voc);
    let pq = eng.prepare(&queries[2]).unwrap();
    let rw_iters = if criterion::is_smoke() { 5 } else { 40 };
    let mut leg_times = Vec::new();
    for rebuild in [false, true] {
        let mut session = Session::new(db.clone()).with_scaffold_rebuild_on_write(rebuild);
        let _ = eng.entails_prepared(&session, &pq).unwrap(); // warm
        let mut step = 0usize;
        let t = workloads::time_median(rw_iters, || {
            apply_write(&mut session, &voc, 1024, step);
            step += 1;
            let _ = eng.entails_prepared(&session, &pq).unwrap();
        });
        leg_times.push(t);
        // The session's maintenance counters must tell the story the
        // legs are named after: the incremental leg absorbs (in-place
        // patchable) writes without a single scaffold rebuild, the
        // drop-and-rebuild baseline pays one rebuild per write it
        // patches nothing for.
        let stats = session.stats();
        if rebuild {
            assert!(
                stats.scaffold_rebuilds() > 0,
                "baseline leg must rebuild: {stats:?}"
            );
        } else {
            assert!(
                stats.in_place_patches > 0,
                "incremental leg must patch in place: {stats:?}"
            );
        }
        println!(
            "prepared/rw-maintenance      {} leg: {} in-place patches, {} scaffold rebuilds, {} cache drops, {} pair evictions",
            if rebuild { "rebuild    " } else { "incremental" },
            stats.in_place_patches,
            stats.scaffold_rebuilds(),
            stats.cache_drops,
            stats.pair_evictions,
        );
    }
    let rw_speedup = leg_times[1].as_secs_f64() / leg_times[0].as_secs_f64().max(1e-12);
    println!(
        "prepared/rw-speedup-summary   warm-across-writes: incremental {:>10?}  drop-and-rebuild {:>10?}  speedup: {rw_speedup:.1}x — target >= 20x: {}",
        leg_times[0],
        leg_times[1],
        if rw_speedup >= 20.0 { "MET" } else { "NOT MET" }
    );

    // Serving-path overhead: the prepared disjunctive evaluation through
    // the in-process protocol dispatcher vs the direct call. Acceptance
    // target: < 2x.
    {
        let (voc, db, queries) = setup(1024);
        let eng = Engine::new(&voc);
        let session = Session::new(db.clone());
        let pq = eng.prepare(&queries[2]).unwrap();
        let _ = eng.entails_prepared(&session, &pq).unwrap(); // warm
        let mut conn = serving_conn(&voc, &db);
        let direct = workloads::time_median(iters, || {
            let _ = eng.entails_prepared(&session, &pq).unwrap();
        });
        let served = workloads::time_median(iters, || {
            let _ = conn.handle_line("ENTAIL disj");
        });
        let overhead = served.as_secs_f64() / direct.as_secs_f64().max(1e-12);
        println!(
            "prepared/serving-summary      direct: {direct:>12?}  protocol: {served:>12?}  overhead: {overhead:.2}x — target < 2x: {}",
            if overhead < 2.0 { "MET" } else { "NOT MET" }
        );
    }

    // Shared pair-table contention: hammer one warm session from four
    // threads and report how often a search lost the lock race and fell
    // back to a private table (see DisjunctiveScaffold::pairs).
    let session = Session::new(db.clone());
    let _ = eng.entails_prepared(&session, &pq).unwrap();
    let reads_per_thread = if criterion::is_smoke() { 10 } else { 200 };
    std::thread::scope(|scope| {
        for _ in 0..4 {
            scope.spawn(|| {
                for _ in 0..reads_per_thread {
                    let _ = eng.entails_prepared(&session, &pq).unwrap();
                }
            });
        }
    });
    let scaffold = session.disjunctive_scaffold(&voc).unwrap();
    let total = 4 * reads_per_thread as u64;
    println!(
        "prepared/contention-report    shared pair table: {} private-table fallbacks over {total} concurrent evaluations ({:.1}%)",
        scaffold.contention_fallbacks(),
        100.0 * scaffold.contention_fallbacks() as f64 / total as f64
    );
}

/// Prints and records the MVCC serving evidence: write latency with a
/// long read in flight, client-side read p50/p99 under a write storm,
/// burst write throughput, and group-commit coalescing (≥ 2
/// fragments/commit on the burst).
fn report_mvcc(_c: &mut Criterion) {
    use indord_server::protocol::Response;
    use indord_server::runtime::Conn;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::Arc;
    use std::time::Instant;
    let stats_of = |conn: &mut Conn| match conn.handle_line("STATS") {
        Response::Stats(s) => *s,
        other => panic!("STATS: unexpected {other:?}"),
    };
    let (voc, db, _queries) = setup(1024);

    // 1. Write latency with a 25ms-held read view in flight (the slow
    //    Thm 5.3 countermodel-enumeration stand-in). Writes arrive 5ms
    //    apart like a real client, so each lands mid-hold. A held
    //    snapshot must never delay a write.
    let writes = if criterion::is_smoke() { 8 } else { 40 };
    let (registry, mut conn) = serving_conn_shared(&voc, &db);
    let stop = Arc::new(AtomicBool::new(false));
    let holder = {
        let registry = Arc::clone(&registry);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let db = registry.get("bench").expect("installed");
            while !stop.load(Ordering::Relaxed) {
                let view = db.view();
                std::thread::sleep(Duration::from_millis(25));
                drop(view);
                std::thread::yield_now();
            }
        })
    };
    std::thread::sleep(Duration::from_millis(5)); // holder is in place
    let mut samples = Vec::with_capacity(writes);
    for step in 0..writes {
        std::thread::sleep(Duration::from_millis(5)); // client pacing
        let line = format!("FACT P{}(t1_{});", step % 3, step % 512);
        let t0 = Instant::now();
        let r = conn.handle_line(&line);
        samples.push(t0.elapsed());
        assert!(matches!(r, Response::Ok(_)), "write failed: {r:?}");
    }
    stop.store(true, Ordering::Relaxed);
    holder.join().expect("holder thread");
    let write_mean = samples.iter().sum::<Duration>() / samples.len() as u32;
    criterion::record(
        "prepared/serving-mvcc/write-mean-under-long-read/mvcc",
        write_mean.as_nanos() as f64,
    );
    println!("prepared/mvcc-write-summary   write mean under 25ms-held read: {write_mean:>10?}");

    // 2. Client-side read p50/p99 under a steady background write load
    //    (one writer, a label fact on known constants every 5ms). The
    //    claim under test is that writes never *block* reads. The pacing
    //    keeps commits below the p99 sample tail on a single-core box,
    //    where a saturating writer would measure the scheduler's
    //    timeslicing (every thread starves every other thread at 100%
    //    CPU) rather than the concurrency discipline.
    let window = Duration::from_millis(if criterion::is_smoke() { 50 } else { 250 });
    let (registry, mut conn) = serving_conn_shared(&voc, &db);
    let stop = Arc::new(AtomicBool::new(false));
    let storm = {
        let registry = Arc::clone(&registry);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut c = Conn::new(registry);
            c.handle_line("USE bench");
            let mut step = 0usize;
            while !stop.load(Ordering::Relaxed) {
                step += 1;
                c.handle_line(&format!("FACT P{}(t0_{});", step % 3, (step * 7) % 512));
                std::thread::sleep(Duration::from_millis(5));
            }
        })
    };
    let started = Instant::now();
    let mut reads: Vec<f64> = Vec::with_capacity(1 << 16);
    while started.elapsed() < window {
        let t0 = Instant::now();
        let _ = criterion::black_box(conn.handle_line("ENTAIL disj"));
        reads.push(t0.elapsed().as_nanos() as f64);
    }
    stop.store(true, Ordering::Relaxed);
    storm.join().expect("storm thread");
    reads.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let p50 = reads[reads.len() / 2];
    let p99 = reads[(reads.len() * 99 / 100).min(reads.len() - 1)];
    criterion::record("prepared/serving-mvcc/read-p50-under-storm/mvcc", p50);
    criterion::record("prepared/serving-mvcc/read-p99-under-storm/mvcc", p99);
    println!(
        "prepared/mvcc-read-storm      read p50: {:>9.0} ns  p99: {:>9.0} ns  ({} reads under storm)",
        p50,
        p99,
        reads.len()
    );

    // 3. Burst throughput + group-commit coalescing. Six concurrent
    //    connections each push a run of label facts; the mutator drains
    //    whatever queued, so fragments/commit > 1 is the group-commit
    //    claim (exact sizes are scheduling-dependent).
    const BURST_WRITERS: usize = 6;
    let per_writer = if criterion::is_smoke() { 10 } else { 40 };
    let (registry, mut conn) = serving_conn_shared(&voc, &db);
    let before = stats_of(&mut conn);
    let landed = Arc::new(AtomicU64::new(0));
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for w in 0..BURST_WRITERS {
            let registry = Arc::clone(&registry);
            let landed = Arc::clone(&landed);
            scope.spawn(move || {
                let mut c = Conn::new(registry);
                c.handle_line("USE bench");
                for k in 0..per_writer {
                    let r = c.handle_line(&format!(
                        "FACT P{}(t1_{});",
                        (w + k) % 3,
                        (w * per_writer + k) % 512
                    ));
                    assert!(matches!(r, Response::Ok(_)), "burst write failed: {r:?}");
                    landed.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
    });
    let wall = t0.elapsed();
    let after = stats_of(&mut conn);
    let wps = landed.load(Ordering::Relaxed) as f64 / wall.as_secs_f64().max(1e-12);
    criterion::record("prepared/serving-mvcc/burst-writes-per-sec/mvcc", wps);
    println!(
        "prepared/mvcc-burst           {} writes from {BURST_WRITERS} connections in {wall:?} ({wps:.0} writes/s)",
        landed.load(Ordering::Relaxed)
    );
    let commits = (after.group_commits - before.group_commits).max(1);
    let fragments = after.group_fragments - before.group_fragments;
    let avg = fragments as f64 / commits as f64;
    criterion::record("prepared/serving-mvcc/burst-fragments-per-commit", avg);
    criterion::record(
        "prepared/serving-mvcc/burst-max-group",
        after.max_group as f64,
    );
    println!(
        "prepared/mvcc-coalescing      burst: {fragments} fragments over {commits} group commits = {avg:.1} avg (max group {}) — target >= 2 fragments/commit: {}",
        after.max_group,
        if avg >= 2.0 { "MET" } else { "NOT MET" }
    );
}

/// The durability overhead (ISSUE 7 acceptance): write mean through the
/// wire `Conn` on the in-memory MVCC registry vs a durable registry
/// under each fsync policy, same workload, same database. One
/// sequential writer — on the single-core bench box concurrent writers
/// would measure the scheduler, not the WAL — and every write is its
/// own group commit, so the `group` leg pays the worst-case one fsync
/// per write. Target: `fsync=group` write mean ≤ 1ms absolute (the
/// fsync is hardware-fixed; a ratio against the now-cheap in-memory
/// publish would measure the baseline, not the WAL).
fn report_durable(_c: &mut Criterion) {
    use indord_server::durable::StorageConfig;
    use indord_server::protocol::Response;
    use indord_server::runtime::{Conn, Registry};
    use indord_storage::FsyncPolicy;
    use std::sync::Arc;
    use std::time::Instant;

    let (voc, db, _queries) = setup(1024);
    let writes = if criterion::is_smoke() { 8 } else { 200 };
    let legs: [(&str, Option<FsyncPolicy>); 4] = [
        ("in-memory", None),
        ("group", Some(FsyncPolicy::Group)),
        ("always", Some(FsyncPolicy::Always)),
        ("os", Some(FsyncPolicy::Os)),
    ];
    let mut means = Vec::new();
    for (leg, fsync) in legs {
        let root = fsync.map(|policy| {
            let root = std::env::temp_dir()
                .join(format!("indord-bench-durable-{}-{leg}", std::process::id()));
            let _ = std::fs::remove_dir_all(&root);
            std::fs::create_dir_all(&root).expect("bench data dir");
            (root, policy)
        });
        let registry = match &root {
            None => Arc::new(Registry::new()),
            Some((root, policy)) => {
                let cfg = StorageConfig {
                    root: root.clone(),
                    fsync: *policy,
                    snapshot_every: 1_000_000, // never: measure the log, not snapshots
                };
                Arc::new(Registry::with_storage(cfg).expect("durable registry"))
            }
        };
        registry.install("bench", voc.clone(), db.clone());
        let mut conn = Conn::new(Arc::clone(&registry));
        conn.handle_line("USE bench");
        conn.handle_line("FACT P0(t0_0);"); // warm the write path
        let mut total = Duration::ZERO;
        for step in 0..writes {
            let line = format!("FACT P{}(t0_{});", step % 3, (step * 7) % 512);
            let t0 = Instant::now();
            let r = conn.handle_line(&line);
            total += t0.elapsed();
            assert!(matches!(r, Response::Ok(_)), "bench write failed: {r:?}");
        }
        let mean = total / writes as u32;
        criterion::record(
            &format!("prepared/serving-durable/write-mean/{leg}"),
            mean.as_nanos() as f64,
        );
        if matches!(fsync, Some(FsyncPolicy::Group)) {
            let stats = match conn.handle_line("STATS") {
                Response::Stats(s) => *s,
                other => panic!("STATS: unexpected {other:?}"),
            };
            println!(
                "prepared/durable-group        {} wal appends, {} bytes, {} fsyncs over {} acked writes",
                stats.wal_appends,
                stats.wal_bytes,
                stats.fsyncs,
                writes + 1
            );
        }
        registry.shutdown_dbs();
        drop(conn);
        drop(registry);
        if let Some((root, _)) = root {
            let _ = std::fs::remove_dir_all(&root);
        }
        means.push((leg, mean));
    }
    let base = means[0].1.as_secs_f64().max(1e-12);
    for &(leg, mean) in &means[1..] {
        println!(
            "prepared/durable-overhead     fsync={leg:<6} write mean: {mean:>10?} vs in-memory {:>10?} = {:.2}x",
            means[0].1,
            mean.as_secs_f64() / base
        );
    }
    // The durability tax is one fsync (hardware-fixed, ~100-300µs on
    // commodity disks), so with the copy-on-write commit path making
    // in-memory publishes cheap, a *ratio* against in-memory would
    // only measure how fast the baseline got. The target is absolute:
    // an acked durable write stays under 1ms end to end.
    let group_mean = means[1].1;
    println!(
        "prepared/durable-summary      group-fsync write mean {group_mean:?} (in-memory {:?}; the gap is the per-group fsync) — target <= 1ms: {}",
        means[0].1,
        if group_mean <= Duration::from_millis(1) {
            "MET"
        } else {
            "NOT MET"
        }
    );
}

/// The overload-protection leg: sequential write mean under each
/// commit-queue cap (the admission check must stay out of the
/// uncontended path's way) and the shed rate of a saturating burst
/// enqueued against a stalled mutator (everything past the cap must be
/// rejected with the typed retryable error, not queued without bound).
/// Sequential on purpose: the CI container is single-core, so a
/// threaded storm would measure the scheduler, not admission.
fn report_overload(_c: &mut Criterion) {
    use indord_server::protocol::{ErrorKind, Response};
    use indord_server::runtime::{Conn, Registry};
    use std::sync::Arc;
    use std::time::Instant;

    let (voc, db, _queries) = setup(1024);
    let writes = if criterion::is_smoke() { 8 } else { 200 };
    let burst = if criterion::is_smoke() { 64 } else { 512 };
    for cap in [8usize, 64, 256] {
        let registry = Arc::new(Registry::new().with_max_queue(cap));
        registry.install("bench", voc.clone(), db.clone());
        let mut conn = Conn::new(Arc::clone(&registry));
        conn.handle_line("USE bench");
        conn.handle_line("FACT P0(t0_0);"); // warm the write path
        let mut total = Duration::ZERO;
        for step in 0..writes {
            let line = format!("FACT P{}(t0_{});", step % 3, (step * 7) % 512);
            let t0 = Instant::now();
            let r = conn.handle_line(&line);
            total += t0.elapsed();
            assert!(matches!(r, Response::Ok(_)), "bench write failed: {r:?}");
        }
        let mean = total / writes as u32;
        criterion::record(
            &format!("prepared/serving-overload/write-mean/cap{cap}"),
            mean.as_nanos() as f64,
        );

        // The saturating burst: stall the mutator, enqueue without
        // waiting, count the typed rejections. With the mutator parked
        // the admitted count is exactly the cap, so the recorded rate
        // tracks the admission contract, not scheduler noise.
        let db_handle = registry.get("bench").unwrap();
        let stall = db_handle.stall_mutator(Duration::from_millis(100)).unwrap();
        while db_handle.stats().commit_queue_depth() > 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        let mut receivers = Vec::new();
        let mut shed = 0u64;
        for i in 0..burst {
            let frag = format!("P{}(t0_{});", i % 3, (i * 11) % 512);
            match db_handle.enqueue_fragment(&frag) {
                Ok(rx) => receivers.push(rx),
                Err(e) => {
                    assert_eq!(e.kind, ErrorKind::Overloaded, "burst rejection: {e:?}");
                    shed += 1;
                }
            }
        }
        let _ = stall.recv();
        for rx in receivers {
            let _ = rx.recv();
        }
        let rate = shed as f64 / burst as f64;
        criterion::record(
            &format!("prepared/serving-overload/shed-rate/cap{cap}"),
            rate,
        );
        println!(
            "prepared/serving-overload     cap={cap:<4} write mean {mean:>10?}  burst {burst}: shed {shed} ({:.0}%)",
            rate * 100.0
        );
        registry.shutdown_dbs();
        drop(conn);
        drop(registry);
    }
}

/// The tracing-overhead leg: the same prepared serving workload through
/// the wire `Conn` with the recorder disabled (the default) vs enabled
/// on every request (`--slow-ms` with an unreachable threshold, so the
/// slow log never fires and the delta is the recorder itself — clock
/// reads per phase on reads, plus the phase-slot round trip through the
/// mutator on writes). Sequential legs on purpose: the CI box is
/// single-core, so concurrency here would measure the scheduler.
/// Target: ≤ 5% read-path overhead.
fn report_trace_overhead(_c: &mut Criterion) {
    use indord_server::protocol::Response;
    use std::time::Duration;
    let (voc, db, _queries) = setup(1024);
    // No smoke-mode shrink here, on purpose: the whole group costs
    // tens of milliseconds, and CI's bench gate compares the smoke
    // run's recorded values against the committed full-run baseline —
    // they must be measured identically or the gate compares noise.
    let iters = 60;
    let rounds = 12;
    const LEGS: [(&str, Option<u64>); 2] = [("disabled", None), ("enabled", Some(u64::MAX))];
    let mut conns: Vec<_> = LEGS
        .iter()
        .map(|&(_, slow)| serving_conn(&voc, &db).with_slow_ms(slow))
        .collect();
    // The overhead under measure is ~100–200ns on a ~5µs request, well
    // inside this box's frequency drift over a single leg's runtime —
    // so the legs interleave across rounds and each keeps its best
    // median: drift hits both legs instead of whichever ran last.
    let mut read_means = [Duration::MAX; 2];
    let mut write_means = [Duration::MAX; 2];
    // Both legs must write the *identical* fact stream: the inserted
    // predicates/objects shape the scaffold and search space, and a
    // divergent pair of databases measures workload drift, not tracing.
    let mut steps = [0usize; 2];
    for _ in 0..rounds {
        for (i, conn) in conns.iter_mut().enumerate() {
            let read = workloads::time_median(iters, || {
                let r = criterion::black_box(conn.handle_line("ENTAIL disj"));
                assert!(matches!(r, Response::Verdict(_)), "read failed: {r:?}");
            });
            read_means[i] = read_means[i].min(read);
            let step = &mut steps[i];
            let write = workloads::time_median(iters, || {
                *step += 1;
                let r =
                    conn.handle_line(&format!("FACT P{}(t0_{});", *step % 3, (*step * 7) % 512));
                assert!(matches!(r, Response::Ok(_)), "write failed: {r:?}");
            });
            write_means[i] = write_means[i].min(write);
        }
    }
    for (i, (leg, _)) in LEGS.iter().enumerate() {
        criterion::record(
            &format!("prepared/serving-trace/read-mean/{leg}"),
            read_means[i].as_nanos() as f64,
        );
        criterion::record(
            &format!("prepared/serving-trace/write-mean/{leg}"),
            write_means[i].as_nanos() as f64,
        );
    }
    let read_ratio = read_means[1].as_secs_f64() / read_means[0].as_secs_f64().max(1e-12);
    let write_ratio = write_means[1].as_secs_f64() / write_means[0].as_secs_f64().max(1e-12);
    // Recorded as percent, not a ratio: the JSON dump keeps one
    // decimal, which would flatten 1.044x to 1.0.
    criterion::record(
        "prepared/serving-trace/read-overhead-pct",
        (read_ratio - 1.0) * 100.0,
    );
    println!(
        "prepared/trace-overhead       read mean: untraced {:>10?}  traced {:>10?} = {read_ratio:.3}x; write mean: untraced {:>10?}  traced {:>10?} = {write_ratio:.3}x",
        read_means[0], read_means[1], write_means[0], write_means[1]
    );
    println!(
        "prepared/trace-summary        tracing overhead on the read path: {:.1}% — target <= 5%: {}",
        (read_ratio - 1.0) * 100.0,
        if read_ratio <= 1.05 { "MET" } else { "NOT MET" }
    );
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_repeated_queries, bench_ne_workloads, bench_read_write, bench_eviction,
        bench_serving, bench_query_mix_batch, report_speedup, report_mvcc, report_durable,
        report_overload, report_trace_overhead
}
criterion_main!(benches);
