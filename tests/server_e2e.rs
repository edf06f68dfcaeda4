//! End-to-end serving harness: boot `indord-serve`'s runtime on an
//! ephemeral port and drive the full wire protocol — open → write →
//! prepare → entail → countermodel → batch → stats — from many
//! concurrent TCP clients, asserting every verdict against a direct
//! in-process [`Engine`] oracle.
//!
//! The workload is the promoted `prepared_service` monitoring story on
//! the `concurrent_serving` database shape: two observer chains with
//! mixed `<`/`<=` steps and a `!=` pair, a fixed query panel compiled
//! once via `PREPARE`, and single-writer mutation phases (label fact /
//! acyclic cross-chain edge / known-vertex `!=`) between parallel read
//! phases. Every write lands on known constants, so the server-side
//! session must absorb all of them in place: the final `STATS` reply is
//! asserted to show nonzero prepared-cache hits and in-place patches
//! and **zero** scaffold rebuilds.

use indord::core::parse::{parse_database, parse_query};
use indord::core::sym::Vocabulary;
use indord::entail::Engine;
use indord_server::protocol::Response;
use indord_server::runtime::{serve, Registry};
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;

mod common;

const CLIENTS: usize = 6;
const ROUNDS: usize = 8;

/// A test client: one TCP connection speaking the line protocol.
struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect to test server");
        let reader = BufReader::new(stream.try_clone().expect("clone stream"));
        Client { stream, reader }
    }

    fn send(&mut self, line: &str) -> Response {
        self.stream
            .write_all(format!("{line}\n").as_bytes())
            .expect("send request");
        Response::read_from(&mut self.reader)
            .expect("read response")
            .expect("server replied")
    }

    fn ok(&mut self, line: &str) {
        match self.send(line) {
            Response::Ok(_) => {}
            other => panic!("`{line}` failed: {other:?}"),
        }
    }

    fn close(mut self) {
        assert_eq!(self.send("CLOSE"), Response::Bye);
    }
}

/// The seed fragment: the `concurrent_serving` two-observer shape, sent
/// through `FACT` exactly as a client would.
fn seed_fragment() -> String {
    common::serving_db_text(2, 12)
}

/// The alert panel: sequential, disjunctive (drives the Thm 5.3
/// scaffold), and `!=` shapes.
const PANEL: [(&str, &str); 3] = [
    ("seq", "exists a b. P0(a) & a < b & P1(b)"),
    (
        "disj",
        "(exists s. P0(s) & P1(s)) | exists s t. P0(s) & s < t & P2(t)",
    ),
    ("ne", "exists s t. P0(s) & P2(t) & s != t"),
];

/// Single-writer mutation phases, all over constants the seed already
/// interned — the server session must patch every one in place.
const WRITES: [&str; 4] = [
    "FACT P2(t0_3);",
    "ASSERT t0_4 < t1_7;",
    "ASSERT t0_8 != t1_1;",
    "ASSERT t0_9 <= t1_10;",
];

/// The in-process oracle: rebuild the database from the accumulated
/// fragments and decide the panel with a direct [`Engine`].
fn oracle_verdicts(fragments: &[&str]) -> Vec<bool> {
    let mut voc = Vocabulary::new();
    let text: String = fragments
        .iter()
        .map(|f| {
            f.trim_start_matches("FACT ")
                .trim_start_matches("ASSERT ")
                .to_string()
        })
        .collect::<Vec<_>>()
        .join(" ");
    let db = parse_database(&mut voc, &text).expect("oracle database parses");
    let queries: Vec<_> = PANEL
        .iter()
        .map(|(_, q)| parse_query(&mut voc, q).expect("oracle query parses"))
        .collect();
    let eng = Engine::new(&voc);
    queries
        .iter()
        .map(|q| eng.entails(&db, q).expect("oracle evaluates").holds())
        .collect()
}

/// One parallel read phase: `CLIENTS` fresh TCP clients hammer the
/// prepared panel (entail + countermodel + batch), asserting agreement
/// with the oracle on every reply.
fn parallel_read_phase(addr: SocketAddr, expected: &[bool]) {
    thread::scope(|scope| {
        for _ in 0..CLIENTS {
            scope.spawn(move || {
                let mut c = Client::connect(addr);
                c.ok("USE lab");
                let batch_expected = Response::Verdicts(
                    PANEL
                        .iter()
                        .zip(expected)
                        .map(|((name, _), &holds)| (name.to_string(), holds))
                        .collect(),
                );
                for _ in 0..ROUNDS {
                    for ((name, text), &want) in PANEL.iter().zip(expected) {
                        // Prepared-name route.
                        assert_eq!(
                            c.send(&format!("ENTAIL {name}")),
                            Response::Verdict(want),
                            "prepared {name} drifted from the oracle"
                        );
                        // Inline route (parse per request, same session).
                        assert_eq!(
                            c.send(&format!("ENTAIL {text}")),
                            Response::Verdict(want),
                            "inline {name} drifted from the oracle"
                        );
                        // Witness route: CERTAIN exactly when entailed,
                        // a countermodel word otherwise.
                        match c.send(&format!("COUNTERMODEL {name}")) {
                            Response::Verdict(true) => assert!(want, "{name}: spurious CERTAIN"),
                            Response::Countermodel(body) => {
                                assert!(!want, "{name}: spurious countermodel");
                                assert!(!body.trim().is_empty());
                            }
                            other => panic!("COUNTERMODEL {name}: unexpected {other:?}"),
                        }
                    }
                    assert_eq!(
                        c.send(&format!(
                            "BATCH {}",
                            PANEL.iter().map(|(n, _)| *n).collect::<Vec<_>>().join(" ")
                        )),
                        batch_expected,
                        "batch verdicts drifted from the oracle"
                    );
                }
                c.close();
            });
        }
    });
}

#[test]
fn tcp_served_session_agrees_with_engine_oracle_across_writes() {
    let registry = Arc::new(Registry::new());
    let mut handle = serve(registry, "127.0.0.1:0", CLIENTS + 2).expect("bind ephemeral port");
    let addr = handle.addr();

    // Seed + prepare through the wire, like any client would.
    let seed = seed_fragment();
    let mut writer = Client::connect(addr);
    writer.ok("OPEN lab");
    writer.ok(&format!("FACT {seed}"));
    for (name, text) in PANEL {
        writer.ok(&format!("PREPARE {name}: {text}"));
    }

    // Phase 0: parallel reads on the seed database (this also warms the
    // scaffold before the first write, pinning the no-rebuild claim).
    let mut fragments: Vec<&str> = vec![&seed];
    parallel_read_phase(addr, &oracle_verdicts(&fragments));

    // Write phases: one mutation each, then parallel reads validated
    // against a freshly-built oracle.
    for write in WRITES {
        writer.ok(write);
        fragments.push(write);
        parallel_read_phase(addr, &oracle_verdicts(&fragments));
    }

    // Concurrent PREPAREs: each client registers its own query and
    // immediately serves from it (registry writes are serialized by the
    // db write lock).
    thread::scope(|scope| {
        for i in 0..CLIENTS {
            scope.spawn(move || {
                let mut c = Client::connect(addr);
                c.ok("USE lab");
                c.ok(&format!("PREPARE own{i}: exists s. P{}(s)", i % 3));
                assert_eq!(c.send(&format!("ENTAIL own{i}")), Response::Verdict(true));
                c.close();
            });
        }
    });

    // The acceptance gate: nonzero prepared-cache hits and in-place
    // patches, and the acyclic-edge workload forced no scaffold
    // rebuild.
    let stats = match writer.send("STATS") {
        Response::Stats(s) => s,
        other => panic!("STATS: unexpected {other:?}"),
    };
    let reads_per_phase = (CLIENTS * ROUNDS * (3 * PANEL.len() + PANEL.len())) as u64;
    assert!(
        stats.prepared_hits > 0,
        "prepared cache must serve hits: {stats:?}"
    );
    assert!(
        stats.queries >= reads_per_phase,
        "query counter undercounts: {stats:?}"
    );
    assert_eq!(
        stats.in_place_patches,
        WRITES.len() as u64,
        "every write phase must patch in place: {stats:?}"
    );
    assert_eq!(
        stats.scaffold_rebuilds, 0,
        "acyclic-edge workload must not rebuild the scaffold: {stats:?}"
    );
    assert_eq!(stats.scaffold_builds, 1, "one warm scaffold: {stats:?}");
    assert_eq!(stats.prepared, (PANEL.len() + CLIENTS) as u64);
    assert!(
        stats.p50_ns > 0 && stats.p99_ns >= stats.p50_ns,
        "{stats:?}"
    );

    // MVCC group-commit accounting: every write landed through the
    // mutator, each mutation published a snapshot, the queue drained,
    // and the current snapshot has measurable age. The seed fragment
    // (fresh constants) is the one structural write; the four mutation
    // phases all patch known vertices.
    assert!(stats.group_commits > 0, "{stats:?}");
    assert!(stats.snapshots_published > 0, "{stats:?}");
    assert_eq!(
        stats.patchable_writes,
        WRITES.len() as u64,
        "every mutation phase is patchable: {stats:?}"
    );
    assert_eq!(
        stats.structural_writes, 1,
        "only the seed fragment is structural: {stats:?}"
    );
    assert!(stats.queue_depth_p99 >= 1, "{stats:?}");
    assert_eq!(stats.commit_queue_depth, 0, "queue must drain: {stats:?}");
    assert!(stats.snapshot_age_ns > 0, "{stats:?}");

    // STATS round-trips the wire representation (protocol sanity at the
    // integration level).
    let rendered = Response::Stats(stats.clone()).render();
    let mut r = BufReader::new(rendered.as_bytes());
    assert_eq!(
        Response::read_from(&mut r).unwrap().unwrap(),
        Response::Stats(stats)
    );

    writer.close();
    handle.shutdown();
}

/// A write burst completes while a long read holds its snapshot: the
/// MVCC non-blocking contract, end to end.
///
/// The "deliberately slow COUNTERMODEL" is modelled two ways at once:
/// wire clients churn `COUNTERMODEL ne` for the whole burst, and — as a
/// deterministic stand-in for an enumeration of *arbitrary* duration —
/// an in-process handle pins a `DbSnapshot` for the entire burst (a
/// pinned snapshot is exactly what a countermodel enumeration holds
/// while it walks the state graph). The burst lands, publishes fresh
/// snapshots, and the pinned one stays immutable. The burst completing
/// *inside* the scope, while `pinned` is still alive, is the claim.
#[test]
fn slow_countermodel_reader_never_blocks_the_write_burst() {
    const BURST: usize = 40;
    let registry = Arc::new(Registry::new());
    let mut handle =
        serve(Arc::clone(&registry), "127.0.0.1:0", CLIENTS + 4).expect("bind ephemeral port");
    let addr = handle.addr();

    let seed = seed_fragment();
    let mut admin = Client::connect(addr);
    admin.ok("OPEN lab");
    admin.ok(&format!("FACT {seed}"));
    for (name, text) in PANEL {
        admin.ok(&format!("PREPARE {name}: {text}"));
    }
    let before = match admin.send("STATS") {
        Response::Stats(s) => s,
        other => panic!("STATS: unexpected {other:?}"),
    };

    let db = registry.get("lab").expect("lab registered");
    // Pin the read view for the whole burst.
    let pinned = db.view();
    let pinned_seq = pinned.seq();
    let pinned_atoms = pinned.session().len();

    let stop = AtomicBool::new(false);
    thread::scope(|scope| {
        // Wire countermodel readers churn against whatever snapshot is
        // current, concurrently with the writers.
        for _ in 0..2 {
            let stop = &stop;
            scope.spawn(move || {
                let mut c = Client::connect(addr);
                c.ok("USE lab");
                while !stop.load(Ordering::Relaxed) {
                    match c.send("COUNTERMODEL ne") {
                        Response::Verdict(true) | Response::Countermodel(_) => {}
                        other => panic!("COUNTERMODEL ne: unexpected {other:?}"),
                    }
                }
                c.close();
            });
        }
        // The burst: concurrent writers, label facts on known constants.
        let writers: Vec<_> = (0..CLIENTS)
            .map(|i| {
                scope.spawn(move || {
                    let mut c = Client::connect(addr);
                    c.ok("USE lab");
                    for k in 0..BURST {
                        c.ok(&format!("FACT P{}(t0_{});", (i + k) % 3, k % 12));
                    }
                    c.close();
                })
            })
            .collect();
        for w in writers {
            w.join()
                .expect("writer finishes while the reader holds its snapshot");
        }
        stop.store(true, Ordering::Relaxed);
    });

    // The pinned snapshot never moved while the burst landed past it.
    assert_eq!(pinned.seq(), pinned_seq);
    assert_eq!(pinned.session().len(), pinned_atoms);
    let fresh = db.read_snapshot().expect("snapshot after burst");
    assert!(
        fresh.seq() > pinned_seq,
        "the burst must publish new snapshots behind the pinned one"
    );
    // Structural claim, tightened by the three-way `Sharing` answer:
    // label-fact patches copy-on-write the scaffold away from pinned
    // snapshots, so across the burst the two warm scaffolds must be
    // *distinct* objects — `Unshared`, not `Shared` (the pinned view
    // stayed immutable) and crucially not `Cold` (the old boolean
    // answer let an unwarmed publish pass this check vacuously).
    use indord::core::session::Sharing;
    assert_eq!(
        pinned.session().shares_scaffold_with(fresh.session()),
        Sharing::Unshared,
        "both snapshots must publish warm, CoW-split scaffolds"
    );
    // The fact store is structurally shared too: every chunk the pinned
    // snapshot sealed is pointer-identical in the fresh one.
    let pinned_log = pinned.session().database().proper_atoms();
    let fresh_log = fresh.session().database().proper_atoms();
    assert_eq!(
        pinned_log.shared_chunks_with(fresh_log),
        pinned_log.sealed_chunks(),
        "burst appends must extend the pinned log, not recopy it"
    );
    drop(pinned);

    let after = match admin.send("STATS") {
        Response::Stats(s) => s,
        other => panic!("STATS: unexpected {other:?}"),
    };
    assert_eq!(
        after.writes - before.writes,
        (CLIENTS * BURST) as u64,
        "every burst atom must land: {after:?}"
    );
    assert!(
        after.snapshots_published > before.snapshots_published,
        "{after:?}"
    );
    assert!(
        after.max_group >= 2,
        "concurrent burst must coalesce into group commits: {after:?}"
    );
    assert_eq!(after.commit_queue_depth, 0, "queue must drain: {after:?}");
    admin.close();
    handle.shutdown();
}

/// The durability leg: stop → restart → query. A durable server is
/// seeded and prepared over the wire, gracefully shut down, and booted
/// again on the same data dir. The restarted server must answer the
/// panel correctly on its *first* requests — with the prepared registry
/// already compiled, zero scaffold rebuilds (warm restart), and the
/// recovery counters visible in `STATS`.
#[test]
fn durable_server_restarts_warm_and_serves_the_prepared_panel() {
    use std::sync::atomic::AtomicU64;
    static N: AtomicU64 = AtomicU64::new(0);
    let root = std::env::temp_dir().join(format!(
        "indord-e2e-durable-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&root).unwrap();
    let storage = || indord_server::durable::StorageConfig::new(&root);

    let seed = seed_fragment();
    let mut fragments: Vec<&str> = vec![&seed];
    fragments.extend(WRITES);
    let expected = oracle_verdicts(&fragments);
    let batch_expected = Response::Verdicts(
        PANEL
            .iter()
            .zip(&expected)
            .map(|((name, _), &holds)| (name.to_string(), holds))
            .collect(),
    );

    // First life: seed, prepare the panel, commit the write phases, and
    // shut down gracefully (the handle drains and fsyncs the WAL tail).
    {
        let registry = Arc::new(Registry::with_storage(storage()).expect("durable registry"));
        let mut handle = serve(registry, "127.0.0.1:0", 2).expect("bind ephemeral port");
        let mut c = Client::connect(handle.addr());
        c.ok("OPEN lab");
        c.ok(&format!("FACT {seed}"));
        for (name, text) in PANEL {
            c.ok(&format!("PREPARE {name}: {text}"));
        }
        for write in WRITES {
            c.ok(write);
        }
        let stats = match c.send("STATS") {
            Response::Stats(s) => s,
            other => panic!("STATS: unexpected {other:?}"),
        };
        assert_eq!(
            stats.wal_appends,
            (1 + PANEL.len() + WRITES.len()) as u64,
            "every acked write is logged: {stats:?}"
        );
        assert!(stats.wal_bytes > 0, "{stats:?}");
        assert!(stats.fsyncs > 0, "group fsync per commit: {stats:?}");
        c.close();
        handle.shutdown();
    }

    // Second life: recovery happens at registry boot, before the port
    // opens; the very first requests must already be warm and correct.
    let registry = Arc::new(Registry::with_storage(storage()).expect("recovery succeeds"));
    let mut handle = serve(registry, "127.0.0.1:0", 2).expect("bind ephemeral port");
    let mut c = Client::connect(handle.addr());
    c.ok("USE lab");
    for ((name, _), &want) in PANEL.iter().zip(&expected) {
        assert_eq!(
            c.send(&format!("ENTAIL {name}")),
            Response::Verdict(want),
            "prepared `{name}` must survive the restart with the right verdict"
        );
    }
    assert_eq!(
        c.send(&format!(
            "BATCH {}",
            PANEL.iter().map(|(n, _)| *n).collect::<Vec<_>>().join(" ")
        )),
        batch_expected,
        "first post-restart BATCH diverges"
    );
    let stats = match c.send("STATS") {
        Response::Stats(s) => s,
        other => panic!("STATS: unexpected {other:?}"),
    };
    assert_eq!(
        stats.recovery_replayed_fragments,
        (1 + PANEL.len() + WRITES.len()) as u64,
        "replay covers the whole committed sequence: {stats:?}"
    );
    assert_eq!(
        stats.recovery_truncated_bytes, 0,
        "clean shutdown: {stats:?}"
    );
    assert_eq!(stats.prepared, PANEL.len() as u64, "{stats:?}");
    assert!(
        stats.prepared_hits >= PANEL.len() as u64 * 2,
        "panel served from the recovered prepared cache: {stats:?}"
    );
    assert_eq!(
        stats.scaffold_builds, 1,
        "boot warmup builds the scaffold once: {stats:?}"
    );
    assert_eq!(
        stats.scaffold_rebuilds, 0,
        "first post-restart queries must not rebuild: {stats:?}"
    );

    // FLUSH over the wire: snapshot + compaction land in the counters,
    // and a third life recovers from the snapshot with nothing to
    // replay.
    c.ok("FLUSH");
    let stats = match c.send("STATS") {
        Response::Stats(s) => s,
        other => panic!("STATS: unexpected {other:?}"),
    };
    assert_eq!(stats.snapshots_written, 1, "{stats:?}");
    assert_eq!(stats.compactions, 1, "{stats:?}");
    c.close();
    handle.shutdown();

    let registry = Arc::new(Registry::with_storage(storage()).expect("recovery succeeds"));
    let db = registry.get("lab").expect("lab recovered");
    assert_eq!(
        db.stats().recovery_replayed_fragments(),
        0,
        "post-FLUSH boot loads the snapshot and replays nothing"
    );
    drop(registry);
    std::fs::remove_dir_all(&root).unwrap();
}

/// A tiny Prometheus text-format parser for the `METRICS` leg: every
/// non-comment line must be `name{labels} value`, and the returned map
/// keys are the full series strings (name + label set).
fn parse_prometheus(text: &str) -> std::collections::HashMap<String, f64> {
    let mut series = std::collections::HashMap::new();
    for line in text.lines() {
        if line.starts_with('#') {
            assert!(
                line.starts_with("# HELP ") || line.starts_with("# TYPE "),
                "unknown comment form: {line}"
            );
            continue;
        }
        let (key, value) = line.rsplit_once(' ').unwrap_or_else(|| {
            panic!("metric line has no value: {line}");
        });
        let value: f64 = if value == "+Inf" {
            f64::INFINITY
        } else {
            value
                .parse()
                .unwrap_or_else(|_| panic!("unparseable value in: {line}"))
        };
        let name_end = key.find('{').unwrap_or(key.len());
        let name = &key[..name_end];
        assert!(
            name.chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
            "bad metric name in: {line}"
        );
        if name_end < key.len() {
            let labels = &key[name_end..];
            assert!(
                labels.starts_with('{') && labels.ends_with('}'),
                "bad label block in: {line}"
            );
            for pair in labels[1..labels.len() - 1].split(',') {
                let (k, v) = pair
                    .split_once('=')
                    .unwrap_or_else(|| panic!("bad label pair `{pair}` in: {line}"));
                assert!(
                    !k.is_empty() && v.starts_with('"') && v.ends_with('"'),
                    "{line}"
                );
            }
        }
        assert!(
            series.insert(key.to_string(), value).is_none(),
            "duplicate series: {key}"
        );
    }
    series
}

/// The observability legs: `EXPLAIN` names the route `TRACE` then
/// reports for each panel query without executing, `TRACE`d requests
/// return phase
/// breakdowns (write phases include WAL/fsync exactly when the server
/// is durable), and `METRICS` renders valid Prometheus text whose
/// histogram counts equal the requests sent.
#[test]
fn explain_trace_and_metrics_introspect_the_serving_path() {
    let registry = Arc::new(Registry::new());
    let mut handle = serve(registry, "127.0.0.1:0", 2).expect("bind ephemeral port");
    let mut c = Client::connect(handle.addr());
    c.ok("OPEN lab");
    c.ok(&format!("FACT {}", seed_fragment()));
    for (name, text) in PANEL {
        c.ok(&format!("PREPARE {name}: {text}"));
    }

    // EXPLAIN names the route chosen against the pinned snapshot — pure
    // introspection, no execution (the query counter must not move).
    // The seed carries a `!=` pair, so even the sequential query is
    // routed through the inequality machinery; the per-disjunct lines
    // still show each disjunct's compiled shape.
    let explain = |c: &mut Client, target: &str| -> String {
        match c.send(&format!("EXPLAIN {target}")) {
            Response::Explain(body) => body,
            other => panic!("EXPLAIN {target}: unexpected {other:?}"),
        }
    };
    let body = explain(&mut c, "seq");
    assert!(body.contains("route ne\n"), "{body}");
    assert!(body.contains("monadic yes"), "{body}");
    assert!(body.contains("disjuncts 1"), "{body}");
    assert!(body.contains("disjunct 0 route seq "), "{body}");
    let body = explain(&mut c, "disj");
    assert!(body.contains("route ne\n"), "{body}");
    assert!(body.contains("disjuncts 2"), "{body}");
    let body = explain(&mut c, "ne");
    assert!(body.contains("ne_atoms 1"), "{body}");
    assert!(body.contains("ne expanded("), "{body}");
    // Inline EXPLAIN compiles the text exactly as PREPARE would.
    let body = explain(&mut c, PANEL[0].1);
    assert!(body.contains("route ne\n"), "{body}");
    let stats = match c.send("STATS") {
        Response::Stats(s) => s,
        other => panic!("STATS: unexpected {other:?}"),
    };
    assert_eq!(stats.queries, 0, "EXPLAIN must not execute: {stats:?}");

    // TRACE executes and reports: an evaluation shows its fired route
    // and search phase; a write on an in-memory server shows the commit
    // pipeline but *no* WAL or fsync time (there is nothing to sync).
    let trace = |c: &mut Client, req: &str| -> String {
        match c.send(&format!("TRACE {req}")) {
            Response::Trace(body) => body,
            other => panic!("TRACE {req}: unexpected {other:?}"),
        }
    };
    let body = trace(&mut c, "ENTAIL seq");
    assert!(body.contains("request ENTAIL seq"), "{body}");
    // The route is db-dependent, not just query-dependent: TRACE
    // reports the same `ne` route EXPLAIN named above.
    assert!(body.contains("route ne"), "{body}");
    assert!(body.contains("outcome CERTAIN"), "{body}");
    assert!(body.contains("phase search "), "{body}");
    let body = trace(&mut c, "FACT P2(t0_5);");
    assert!(body.contains("phase apply "), "{body}");
    assert!(body.contains("phase publish "), "{body}");
    assert!(
        !body.contains("phase wal_append") && !body.contains("phase fsync"),
        "in-memory write must not report WAL time: {body}"
    );

    // METRICS: valid Prometheus text, histogram counts equal to the
    // requests this connection sent (1 traced ENTAIL so far, plus the
    // loop below; the seed FACT + traced FACT give the write count).
    const ENTAILS: usize = 5;
    for _ in 0..ENTAILS - 1 {
        assert_eq!(c.send("ENTAIL seq"), Response::Verdict(true));
    }
    let body = match c.send("METRICS") {
        Response::Metrics(body) => body,
        other => panic!("METRICS: unexpected {other:?}"),
    };
    let series = parse_prometheus(&body);
    let get = |k: &str| -> f64 {
        *series
            .get(k)
            .unwrap_or_else(|| panic!("missing series `{k}` in:\n{body}"))
    };
    assert_eq!(
        get(r#"indord_request_duration_ns_count{db="lab",verb="entail",status="ok"}"#),
        ENTAILS as f64
    );
    assert_eq!(
        get(r#"indord_request_duration_ns_count{db="lab",verb="fact",status="ok"}"#),
        2.0
    );
    assert_eq!(
        get(r#"indord_request_duration_ns_count{db="lab",verb="prepare",status="ok"}"#),
        PANEL.len() as f64
    );
    // Every ENTAIL fired the ne route (see above); the +Inf bucket is
    // the series count.
    assert_eq!(
        get(r#"indord_route_duration_ns_bucket{db="lab",route="ne",le="+Inf"}"#),
        ENTAILS as f64
    );
    assert!(get(r#"indord_request_duration_ns_sum{db="lab",verb="entail",status="ok"}"#) > 0.0);
    // Depth is sampled at every mutator submit: 2 FACTs + the PREPAREs.
    assert_eq!(
        get(r#"indord_commit_queue_depth_count{db="lab"}"#),
        (2 + PANEL.len()) as f64
    );

    // HEALTH carries the liveness extras now.
    match c.send("HEALTH") {
        Response::Health { detail, .. } => {
            assert!(detail.contains("snapshot_age_ms="), "{detail}");
            assert!(detail.contains("commit_queue_depth=0"), "{detail}");
        }
        other => panic!("HEALTH: unexpected {other:?}"),
    }

    // EXPLAIN predicts TRACE: for every panel query, on this `!=`
    // database and again after a label write, the route EXPLAIN names is
    // the route the evaluation takes.
    let route_of = |body: &str| -> String {
        body.lines()
            .find_map(|l| l.strip_prefix("route "))
            .unwrap_or_else(|| panic!("no route line in:\n{body}"))
            .to_string()
    };
    for round in 0..2 {
        for (name, _) in PANEL {
            let explained = route_of(&explain(&mut c, name));
            let traced = route_of(&trace(&mut c, &format!("ENTAIL {name}")));
            assert_eq!(explained, traced, "round {round}: EXPLAIN {name} vs TRACE");
        }
        c.ok("FACT P1(t0_2);");
    }
    c.close();
    handle.shutdown();

    // The durable leg: the same traced write on a `--data-dir` server
    // must report nonzero WAL append and fsync phases.
    use std::sync::atomic::AtomicU64;
    static N: AtomicU64 = AtomicU64::new(0);
    let root = std::env::temp_dir().join(format!(
        "indord-e2e-trace-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&root).unwrap();
    let storage = indord_server::durable::StorageConfig::new(&root);
    let registry = Arc::new(Registry::with_storage(storage).expect("durable registry"));
    let mut handle = serve(registry, "127.0.0.1:0", 2).expect("bind ephemeral port");
    let mut c = Client::connect(handle.addr());
    c.ok("OPEN lab");
    c.ok("FACT pred P(ord); P(u);");
    let body = trace(&mut c, "FACT P(u);");
    let phase_ns = |body: &str, phase: &str| -> Option<u64> {
        body.lines()
            .find_map(|l| l.strip_prefix(&format!("phase {phase} ")))
            .map(|v| v.parse().expect("phase value parses"))
    };
    assert!(
        phase_ns(&body, "wal_append").is_some_and(|ns| ns > 0),
        "durable write must report WAL append time: {body}"
    );
    assert!(
        phase_ns(&body, "fsync").is_some_and(|ns| ns > 0),
        "durable write must report fsync time: {body}"
    );
    c.close();
    handle.shutdown();
    std::fs::remove_dir_all(&root).unwrap();
}

#[test]
fn malformed_lines_get_spanned_errors_over_the_wire() {
    let registry = Arc::new(Registry::new());
    let mut handle = serve(registry, "127.0.0.1:0", 2).expect("bind ephemeral port");
    let mut c = Client::connect(handle.addr());
    c.ok("OPEN scratch");
    let resp = c.send("FACT P(u) @");
    match resp {
        Response::Error(e) => {
            assert_eq!(e.kind, indord_server::protocol::ErrorKind::Parse);
            // Span in request-line coordinates: the `@` at byte 10.
            assert_eq!(e.span, Some(indord::core::error::Span::point(10)));
        }
        other => panic!("expected spanned parse error, got {other:?}"),
    }
    // An unknown prepared name is a registry error, and the connection
    // keeps serving afterwards.
    let resp = c.send("ENTAIL nope");
    assert!(matches!(resp, Response::Error(_)), "{resp:?}");
    c.ok("FACT pred P(ord); P(u);");
    assert_eq!(c.send("ENTAIL exists t. P(t)"), Response::Verdict(true));
    c.close();
    handle.shutdown();
}
