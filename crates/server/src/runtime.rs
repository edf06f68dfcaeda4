//! The serving runtime: a registry of named databases, per-connection
//! request dispatch, and a thread-pooled TCP accept loop.
//!
//! ## Consistency contract
//!
//! Each named database serves reads from an immutable, atomically
//! swapped snapshot and funnels writes through a single mutator thread
//! — **snapshot isolation + group commit** (epoch-style MVCC), not a
//! reader/writer lock. A read (`ENTAIL`/`COUNTERMODEL`/`BATCH`/`STATS`)
//! pins the current [`DbSnapshot`] — a frozen [`Session`] sharing the
//! warm Theorem 5.3 scaffold by `Arc`, the vocabulary, and the
//! prepared-query map — and evaluates without blocking or being
//! blocked: a coNP-hard countermodel enumeration holds only its own
//! snapshot while writers keep committing. Writes (`FACT`/`ASSERT`,
//! `PREPARE`) enqueue on the database's commit queue; the mutator
//! drains the queue into a **group commit**: patchable writes (label
//! facts, acyclic order edges, known-vertex `!=`) are stably sorted
//! ahead of structural ones so one scaffold-dropping write doesn't
//! invalidate the patch pass for its groupmates, each fragment is
//! applied all-or-nothing with its own typed per-client result, and one
//! new snapshot is published by a pointer swap *before* the `OK`
//! replies are sent — so a client observes its own writes on every
//! later request, and other clients' writes atomically (a snapshot is
//! always a prefix of the committed write order, never a torn
//! fragment). Fragment atomicity is unchanged from the lock era: a
//! fragment that fails to parse, panics mid-apply, or would leave the
//! database without models (a `<`-cycle, or a `!=` over N1-merged
//! constants — there is no DELETE to recover with) is rolled back and
//! reported as a typed error, contributing nothing to the published
//! state or counters.
//!
//! ## Stats and observability
//!
//! Every database keeps request counters, lock-free latency histograms
//! per verb and per fired engine route ([`crate::metrics`]), and the
//! group-commit counters ([`DbStats`]); `STATS` merges them with the
//! snapshot session's maintenance counters
//! ([`indord_core::session::SessionStats`]) into a [`StatsReply`],
//! `METRICS` renders the full histograms in Prometheus text format, and
//! `EXPLAIN`/`TRACE` introspect one query's plan or one request's phase
//! breakdown ([`crate::trace`]). A `--slow-ms` threshold logs full
//! traces of over-threshold requests to stderr.

use crate::durable::{self, RecoveredState, StorageConfig};
use crate::metrics::{MetricsRegistry, Status, Verb};
use crate::protocol::{ErrorKind, HealthState, Request, Response, StatsReply, Target, WireError};
use crate::trace::{clock, Phase, PhaseTimes, TraceRecorder, TraceReport};
use indord_core::atom::OrderRel;
use indord_core::counters;
use indord_core::database::Database;
use indord_core::parse::{parse_database, parse_query_expr_in};
use indord_core::query::{eliminate_constants, DnfQuery, QTerm, QueryExpr};
use indord_core::session::Session;
use indord_core::sym::Vocabulary;
use indord_entail::engine::Verdict;
use indord_entail::{route, Engine, PreparedQuery, Route};
use indord_storage::{DbDir, Wal};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex, RwLock};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Default bound on the per-database commit queue: writes beyond this
/// depth are shed with a retryable `ERR overloaded` instead of queueing
/// without limit (see [`Registry::with_max_queue`]).
pub const DEFAULT_MAX_QUEUE: usize = 256;

/// How many times the supervisor restarts a panicked mutator from the
/// last published snapshot before giving up and degrading the database
/// to read-only serving.
const RESTART_BUDGET: u64 = 3;

/// Per-database request counters (lock-free), the metrics registry
/// (latency histograms per verb and fired route), and the MVCC
/// group-commit counters.
#[derive(Debug)]
pub struct DbStats {
    queries: AtomicU64,
    prepared_hits: AtomicU64,
    writes: AtomicU64,
    /// Lock-free histograms: request latency per verb/status, evaluation
    /// latency per fired route, commit-queue depth, engine-work totals.
    /// Replaces the old 1024-slot `try_lock` latency ring — recording is
    /// wait-free and nothing is ever shed.
    metrics: MetricsRegistry,
    /// Write jobs currently enqueued (incremented at submit, decremented
    /// when the mutator drains them into a group).
    pending: AtomicU64,
    group_commits: AtomicU64,
    group_fragments: AtomicU64,
    max_group: AtomicU64,
    snapshots_published: AtomicU64,
    patchable_writes: AtomicU64,
    structural_writes: AtomicU64,
    /// Durability counters — all zero for an in-memory (no `--data-dir`)
    /// database. The wal_* and fsync counters mirror the mutator's
    /// [`indord_storage::WalCounters`] after each group; the recovery_*
    /// pair is written once at boot.
    wal_appends: AtomicU64,
    wal_bytes: AtomicU64,
    fsyncs: AtomicU64,
    snapshots_written: AtomicU64,
    compactions: AtomicU64,
    recovery_replayed_fragments: AtomicU64,
    recovery_truncated_bytes: AtomicU64,
    /// Writes refused at admission because the commit queue was at its
    /// bound (each one was answered with a retryable `ERR overloaded`).
    writes_shed: AtomicU64,
    /// Requests abandoned because their deadline expired — reads whose
    /// search loop noticed the deadline, and writes whose submitter
    /// stopped waiting (the write itself may still commit).
    deadline_aborts: AtomicU64,
    /// Supervisor restarts of the mutator thread after an escaped panic
    /// (state restored from the last published snapshot).
    mutator_restarts: AtomicU64,
    /// Transitions into read-only degraded mode (dead WAL I/O, or the
    /// mutator restart budget exhausted).
    degraded_entries: AtomicU64,
}

impl DbStats {
    fn new() -> Self {
        DbStats {
            queries: AtomicU64::new(0),
            prepared_hits: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            metrics: MetricsRegistry::new(),
            pending: AtomicU64::new(0),
            group_commits: AtomicU64::new(0),
            group_fragments: AtomicU64::new(0),
            max_group: AtomicU64::new(0),
            snapshots_published: AtomicU64::new(0),
            patchable_writes: AtomicU64::new(0),
            structural_writes: AtomicU64::new(0),
            wal_appends: AtomicU64::new(0),
            wal_bytes: AtomicU64::new(0),
            fsyncs: AtomicU64::new(0),
            snapshots_written: AtomicU64::new(0),
            compactions: AtomicU64::new(0),
            recovery_replayed_fragments: AtomicU64::new(0),
            recovery_truncated_bytes: AtomicU64::new(0),
            writes_shed: AtomicU64::new(0),
            deadline_aborts: AtomicU64::new(0),
            mutator_restarts: AtomicU64::new(0),
            degraded_entries: AtomicU64::new(0),
        }
    }

    /// Writes shed at admission by the bounded commit queue.
    pub fn writes_shed(&self) -> u64 {
        self.writes_shed.load(Ordering::Relaxed)
    }

    /// Requests abandoned because their deadline expired.
    pub fn deadline_aborts(&self) -> u64 {
        self.deadline_aborts.load(Ordering::Relaxed)
    }

    /// Supervisor restarts of the mutator thread.
    pub fn mutator_restarts(&self) -> u64 {
        self.mutator_restarts.load(Ordering::Relaxed)
    }

    /// Transitions into read-only degraded mode.
    pub fn degraded_entries(&self) -> u64 {
        self.degraded_entries.load(Ordering::Relaxed)
    }

    /// Entail-class requests served.
    pub fn queries(&self) -> u64 {
        self.queries.load(Ordering::Relaxed)
    }

    /// Requests answered from the prepared registry.
    pub fn prepared_hits(&self) -> u64 {
        self.prepared_hits.load(Ordering::Relaxed)
    }

    /// Group commits executed by the mutator thread.
    pub fn group_commits(&self) -> u64 {
        self.group_commits.load(Ordering::Relaxed)
    }

    /// Write jobs processed across all group commits.
    pub fn group_fragments(&self) -> u64 {
        self.group_fragments.load(Ordering::Relaxed)
    }

    /// WAL records appended (0 for an in-memory database).
    pub fn wal_appends(&self) -> u64 {
        self.wal_appends.load(Ordering::Relaxed)
    }

    /// fsyncs issued by the WAL (0 for an in-memory database).
    pub fn fsyncs(&self) -> u64 {
        self.fsyncs.load(Ordering::Relaxed)
    }

    /// Snapshot files written (0 for an in-memory database).
    pub fn snapshots_written(&self) -> u64 {
        self.snapshots_written.load(Ordering::Relaxed)
    }

    /// WAL records replayed at boot (0 for a fresh or in-memory db).
    pub fn recovery_replayed_fragments(&self) -> u64 {
        self.recovery_replayed_fragments.load(Ordering::Relaxed)
    }

    /// The lock-free metrics registry (latency histograms per verb and
    /// fired route, queue-depth histogram, engine-work totals) — the
    /// data behind the `METRICS` verb.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Write jobs currently enqueued for the mutator thread (0 once the
    /// mutator has drained them into a group, even while it still runs).
    pub fn commit_queue_depth(&self) -> u64 {
        self.pending.load(Ordering::Relaxed)
    }
}

/// One published, immutable version of a database: a frozen warm
/// [`Session`] (scaffold shared by `Arc` — see the session module docs
/// on sharing rules), the vocabulary it was built under, and the
/// prepared-query map. Readers pin a snapshot with one `Arc` clone and
/// keep it for as long as they like; the mutator never touches a
/// published snapshot.
#[derive(Debug)]
pub struct DbSnapshot {
    /// Shared with the mutator until a write interns new symbols —
    /// label/edge writes on known constants publish without cloning
    /// the symbol tables.
    voc: Arc<Vocabulary>,
    session: Session,
    prepared: Arc<HashMap<String, PreparedQuery>>,
    seq: u64,
    published_at: Instant,
}

impl DbSnapshot {
    /// The vocabulary this snapshot's session and prepared queries were
    /// compiled under.
    pub fn vocabulary(&self) -> &Vocabulary {
        &self.voc
    }

    /// The frozen session (warm caches, immutable).
    pub fn session(&self) -> &Session {
        &self.session
    }

    /// Looks up a prepared query.
    pub fn prepared(&self, name: &str) -> Option<&PreparedQuery> {
        self.prepared.get(name)
    }

    /// Number of prepared queries registered in this snapshot.
    pub fn prepared_len(&self) -> usize {
        self.prepared.len()
    }

    /// The commit sequence number (0 = the boot snapshot; +1 per group
    /// commit that changed state).
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Nanoseconds since this snapshot was published.
    pub fn age_ns(&self) -> u64 {
        self.published_at.elapsed().as_nanos() as u64
    }
}

/// A write operation routed through the commit path.
#[derive(Debug)]
enum WriteOp {
    /// A `FACT`/`ASSERT` fragment (payload text, parser syntax).
    Fragment(String),
    /// A `PREPARE` compilation.
    Prepare { name: String, query: String },
    /// A `FLUSH`: force a snapshot + WAL compaction now. Errors on an
    /// in-memory database.
    Flush,
    /// Drain the queue, fsync the WAL tail, and stop the mutator. The
    /// reply is sent only after the tail is durable, so a joined
    /// shutdown never loses an acked write.
    Shutdown,
    /// Test-support (reachable only through the `#[doc(hidden)]`
    /// [`Db::stall_mutator`]): occupy the mutator for `d` so the next
    /// jobs queue up behind it and drain as one deterministic group.
    Stall(std::time::Duration),
    /// Test-support (reachable only through the `#[doc(hidden)]`
    /// [`Db::inject_mutator_panic`]): panic inside the mutator.
    /// `escape: false` panics inside the per-job apply (the per-job
    /// `catch_unwind` must contain it — groupmates are unaffected);
    /// `escape: true` panics outside it, exercising the supervisor's
    /// restart-from-snapshot path.
    Boom { escape: bool },
}

/// The shared health slot of one database: the state served by the
/// `HEALTH` verb and consulted at write admission, plus the reason the
/// database left `ok` (empty while healthy).
type HealthSlot = Arc<Mutex<(HealthState, String)>>;

/// One queued write: the operation plus the channel its typed result is
/// delivered on (after the snapshot containing it is published).
#[derive(Debug)]
struct WriteJob {
    op: WriteOp,
    reply: mpsc::Sender<Result<Response, WireError>>,
    /// When the job entered the commit queue (queue-wait attribution),
    /// in raw `trace::clock` ticks — the unit every phase measurement
    /// shares, converted to ns only when a report is rendered.
    enqueued_raw: u64,
    /// Filled by the mutator — before the reply is sent — with the
    /// write's phase breakdown, for `TRACE`d and slow-logged writes.
    /// `None` for untraced writes (the common case pays nothing here).
    phases: Option<Arc<Mutex<PhaseTimes>>>,
}

/// The mutator-owned durability state of one database: its directory,
/// the open WAL, the snapshot cadence, and the prepared queries' source
/// text (needed to encode snapshots — compiled plans don't serialize).
#[derive(Debug)]
struct DurableState {
    dir: DbDir,
    wal: Wal,
    snapshot_every: u64,
    /// Records appended since the last snapshot/compaction.
    since_snapshot: u64,
    prepared_src: HashMap<String, String>,
}

/// One named database: the published-snapshot slot, the commit queue
/// into the mutator thread, counters shared with the mutator, and the
/// mutator's join handle so shutdown can drain and join it.
#[derive(Debug)]
pub struct Db {
    current: Arc<RwLock<Arc<DbSnapshot>>>,
    sender: Mutex<mpsc::Sender<WriteJob>>,
    stats: Arc<DbStats>,
    mutator: Mutex<Option<JoinHandle<()>>>,
    /// Shared with the mutator/supervisor.
    health: HealthSlot,
    /// Set before the shutdown job is enqueued: admission refuses new
    /// writes with `ERR shutdown`, and the mutator rejects
    /// queued-but-unlogged jobs instead of draining a full queue.
    closing: Arc<AtomicBool>,
    /// Bound on the commit queue depth enforced at admission.
    max_queue: usize,
}

impl Db {
    fn new(voc: Vocabulary, db: Database, max_queue: usize) -> Self {
        Db::build(voc, Session::new(db), HashMap::new(), None, max_queue)
    }

    /// A durable database resuming from recovered on-disk state.
    fn recovered(
        state: RecoveredState,
        dir: DbDir,
        cfg: &StorageConfig,
        max_queue: usize,
    ) -> std::io::Result<Self> {
        let RecoveredState {
            voc,
            session,
            prepared,
            prepared_src,
            next_id,
            since_snapshot,
            replayed_fragments,
            truncated_bytes,
        } = state;
        let wal = dir.open_wal(cfg.fsync, next_id)?;
        let durable = DurableState {
            dir,
            wal,
            snapshot_every: cfg.snapshot_every.max(1),
            since_snapshot,
            prepared_src,
        };
        let db = Db::build(voc, session, prepared, Some(durable), max_queue);
        db.stats
            .recovery_replayed_fragments
            .store(replayed_fragments, Ordering::Relaxed);
        db.stats
            .recovery_truncated_bytes
            .store(truncated_bytes, Ordering::Relaxed);
        Ok(db)
    }

    fn build(
        voc: Vocabulary,
        session: Session,
        prepared: HashMap<String, PreparedQuery>,
        durable: Option<DurableState>,
        max_queue: usize,
    ) -> Self {
        let stats = Arc::new(DbStats::new());
        let health: HealthSlot = Arc::new(Mutex::new((HealthState::Ok, String::new())));
        let closing = Arc::new(AtomicBool::new(false));
        let voc_arc = Arc::new(voc.clone());
        let prepared = Arc::new(prepared);
        let boot = Arc::new(DbSnapshot {
            voc: Arc::clone(&voc_arc),
            session: session.freeze(),
            prepared: Arc::clone(&prepared),
            seq: 0,
            published_at: Instant::now(),
        });
        let current = Arc::new(RwLock::new(boot));
        let (tx, rx) = mpsc::channel::<WriteJob>();
        let m = Mutator {
            current: Arc::clone(&current),
            stats: Arc::clone(&stats),
            voc,
            session,
            voc_arc,
            prepared,
            seq: 0,
            durable,
            health: Arc::clone(&health),
            closing: Arc::clone(&closing),
            restarts: 0,
        };
        // The loop also exits when every Sender is gone, i.e. when this
        // Db is dropped without an explicit shutdown.
        let mutator = thread::Builder::new()
            .name("indord-mutator".into())
            .spawn(move || m.run(rx))
            .expect("spawn mutator thread");
        Db {
            current,
            sender: Mutex::new(tx),
            stats,
            mutator: Mutex::new(Some(mutator)),
            health,
            closing,
            max_queue,
        }
    }

    /// The request counters.
    pub fn stats(&self) -> &DbStats {
        &self.stats
    }

    /// The database's health state and the reason it left `ok` (empty
    /// while healthy). Served by the `HEALTH` verb and consulted at
    /// write admission.
    pub fn health(&self) -> (HealthState, String) {
        self.health
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .clone()
    }

    /// Drains the commit queue, fsyncs the WAL tail, and joins the
    /// mutator thread. Idempotent.
    /// After this, writes fail with a typed error; reads keep serving
    /// the last published snapshot.
    pub fn shutdown_mutator(&self) {
        let handle = self
            .mutator
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .take();
        let Some(handle) = handle else { return };
        // From here on, admission refuses new writes with
        // `ERR shutdown`, and the drain loop rejects queued-but-unlogged
        // jobs with the same error instead of applying them — a full
        // bounded queue cannot stall the shutdown, and nothing unlogged
        // is silently committed.
        self.closing.store(true, Ordering::SeqCst);
        let (tx, rx) = mpsc::channel();
        self.stats.pending.fetch_add(1, Ordering::Relaxed);
        let sent = self
            .sender
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .send(WriteJob {
                op: WriteOp::Shutdown,
                reply: tx,
                enqueued_raw: clock::raw_now(),
                phases: None,
            })
            .is_ok();
        if sent {
            // The ack arrives only after the WAL tail is synced.
            let _ = rx.recv();
        }
        let _ = handle.join();
    }

    /// Pins the current snapshot: one `Arc` clone under a briefly-held
    /// lock on the snapshot slot. A reader can hold it across arbitrary
    /// work without blocking anything.
    pub fn view(&self) -> Arc<DbSnapshot> {
        self.current
            .read()
            .unwrap_or_else(|p| p.into_inner())
            .clone()
    }

    /// [`Db::view`], kept in its `Option` form for callers written
    /// against it; always `Some`.
    pub fn read_snapshot(&self) -> Option<Arc<DbSnapshot>> {
        Some(self.view())
    }

    /// Enqueues `op` on the commit queue without waiting for the reply;
    /// the caller keeps the receiver.
    fn submit_nonblocking(
        &self,
        op: WriteOp,
    ) -> Result<mpsc::Receiver<Result<Response, WireError>>, WireError> {
        self.submit_nonblocking_traced(op, None)
    }

    /// [`Db::submit_nonblocking`] with an optional phase-times slot the
    /// mutator fills (before replying) with the write's queue-wait /
    /// classify / apply / WAL / fsync / publish breakdown.
    fn submit_nonblocking_traced(
        &self,
        op: WriteOp,
        phases: Option<Arc<Mutex<PhaseTimes>>>,
    ) -> Result<mpsc::Receiver<Result<Response, WireError>>, WireError> {
        // Admission control applies to client writes; the control/test
        // ops (`Shutdown`, `Stall`, `Boom`) bypass it — shutdown must
        // always reach the mutator, and the test hooks need to work
        // against deliberately tiny queues.
        let client_write = matches!(
            op,
            WriteOp::Fragment(_) | WriteOp::Prepare { .. } | WriteOp::Flush
        );
        if client_write {
            if self.closing.load(Ordering::SeqCst) {
                return Err(WireError::kinded(
                    ErrorKind::Shutdown,
                    "server is shutting down; the write was not logged",
                ));
            }
            let (state, reason) = self.health();
            if state == HealthState::Degraded {
                return Err(WireError::kinded(
                    ErrorKind::ReadOnly,
                    format!("database is read-only (degraded: {reason})"),
                ));
            }
        }
        let (tx, rx) = mpsc::channel();
        let depth = self.stats.pending.fetch_add(1, Ordering::Relaxed) + 1;
        if client_write && depth > self.max_queue as u64 {
            // Shed instead of queueing without bound: the caller gets a
            // retryable `ERR overloaded` carrying the observed depth.
            self.stats.pending.fetch_sub(1, Ordering::Relaxed);
            self.stats.writes_shed.fetch_add(1, Ordering::Relaxed);
            return Err(WireError::kinded(
                ErrorKind::Overloaded,
                format!(
                    "commit queue is full ({} queued, cap {}); retry with backoff",
                    depth - 1,
                    self.max_queue
                ),
            ));
        }
        self.stats.metrics.record_queue_depth(depth);
        self.sender
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .send(WriteJob {
                op,
                reply: tx,
                enqueued_raw: clock::raw_now(),
                phases,
            })
            .map_err(|_| WireError::proto("database mutator thread is gone"))?;
        Ok(rx)
    }

    /// Test-support: occupies the mutator for `d` without blocking the
    /// caller, so writes enqueued behind the stall drain as one
    /// deterministic group commit. Group-commit and fault-injection
    /// tests only; not part of the public API.
    #[doc(hidden)]
    pub fn stall_mutator(
        &self,
        d: std::time::Duration,
    ) -> Result<mpsc::Receiver<Result<Response, WireError>>, WireError> {
        self.submit_nonblocking(WriteOp::Stall(d))
    }

    /// Test-support: enqueues a `FACT` fragment without waiting for its
    /// ack; the receiver yields the typed result once the group holding
    /// the write commits. Enqueue order from a single caller thread is
    /// the mutator's drain order, which makes multi-fragment groups
    /// deterministic. Not part of the public API.
    #[doc(hidden)]
    pub fn enqueue_fragment(
        &self,
        fragment: &str,
    ) -> Result<mpsc::Receiver<Result<Response, WireError>>, WireError> {
        self.submit_nonblocking(WriteOp::Fragment(fragment.to_string()))
    }

    /// Test-support: panics the mutator thread — inside the per-job
    /// apply (`escape: false`, the per-job `catch_unwind` contains it)
    /// or outside it (`escape: true`, exercising the supervisor's
    /// restart path). Not part of the public API.
    #[doc(hidden)]
    pub fn inject_mutator_panic(
        &self,
        escape: bool,
    ) -> Result<mpsc::Receiver<Result<Response, WireError>>, WireError> {
        self.submit_nonblocking(WriteOp::Boom { escape })
    }

    #[cfg(test)]
    fn submit(&self, op: WriteOp) -> Result<Response, WireError> {
        self.submit_deadline(op, None)
    }

    /// Routes one write through the commit path and blocks for its
    /// typed per-client result, which arrives only after the snapshot
    /// containing the write was published (read-your-own-writes on every
    /// later request). The caller stops waiting at `deadline`: the write
    /// stays queued (it may still commit — the reply channel is simply
    /// dropped), and the caller gets a typed `ERR deadline` telling it
    /// so.
    fn submit_deadline(
        &self,
        op: WriteOp,
        deadline: Option<Instant>,
    ) -> Result<Response, WireError> {
        self.submit_deadline_traced(op, deadline, None)
    }

    /// [`Db::submit_deadline`] with an optional phase-times slot (see
    /// [`Db::submit_nonblocking_traced`]); the slot is filled by the
    /// time the reply arrives.
    fn submit_deadline_traced(
        &self,
        op: WriteOp,
        deadline: Option<Instant>,
        phases: Option<Arc<Mutex<PhaseTimes>>>,
    ) -> Result<Response, WireError> {
        let rx = self.submit_nonblocking_traced(op, phases)?;
        let dropped = || Err(WireError::proto("database mutator dropped the write"));
        let Some(d) = deadline else {
            return rx.recv().unwrap_or_else(|_| dropped());
        };
        let wait = d.saturating_duration_since(Instant::now());
        match rx.recv_timeout(wait) {
            Ok(result) => result,
            // Counted by the dispatching Conn, like read-side expiries.
            Err(mpsc::RecvTimeoutError::Timeout) => Err(WireError::kinded(
                ErrorKind::Deadline,
                "deadline expired while the write was queued; \
                 it was not acked but may still commit",
            )),
            Err(mpsc::RecvTimeoutError::Disconnected) => dropped(),
        }
    }
}

impl Drop for Db {
    fn drop(&mut self) {
        // A clean join even without an explicit Registry shutdown:
        // dropping the last handle to a durable database must fsync its
        // WAL tail before the process moves on.
        self.shutdown_mutator();
    }
}

/// The mutator thread of one MVCC database: drains the commit queue
/// into group commits against the private master state, appends every
/// write to the WAL *before* applying it, fsyncs per policy *before*
/// publishing, publishes one snapshot per state-changing group, then
/// releases the writers — so an acknowledged write is durable (under
/// `always`/`group`) and visible, in that order.
struct Mutator {
    current: Arc<RwLock<Arc<DbSnapshot>>>,
    stats: Arc<DbStats>,
    voc: Vocabulary,
    session: Session,
    voc_arc: Arc<Vocabulary>,
    prepared: Arc<HashMap<String, PreparedQuery>>,
    seq: u64,
    durable: Option<DurableState>,
    health: HealthSlot,
    closing: Arc<AtomicBool>,
    /// Supervisor restarts consumed so far (see [`RESTART_BUDGET`]).
    restarts: u64,
}

impl Mutator {
    fn run(mut self, rx: mpsc::Receiver<WriteJob>) {
        loop {
            let Ok(first) = rx.recv() else {
                // Every sender is gone (the Db was leaked rather than
                // dropped): still leave a durable tail behind.
                self.sync_tail();
                return;
            };
            // Group commit: everything already queued rides along.
            let mut jobs = vec![first];
            while let Ok(j) = rx.try_recv() {
                jobs.push(j);
            }
            if self.closing.load(Ordering::SeqCst) {
                // Graceful shutdown: whatever is still queued was never
                // logged — reject it with `ERR shutdown` rather than
                // spending unbounded time draining a full queue, then
                // fsync everything that *was* logged and ack.
                let mut shutdown_acks = self.reject_for_shutdown(jobs);
                loop {
                    let mut rest = Vec::new();
                    while let Ok(j) = rx.try_recv() {
                        rest.push(j);
                    }
                    if rest.is_empty() {
                        break;
                    }
                    shutdown_acks.extend(self.reject_for_shutdown(rest));
                }
                self.sync_tail();
                for tx in shutdown_acks {
                    let _ = tx.send(Ok(Response::Ok("shutdown complete".to_string())));
                }
                return;
            }
            // Supervision: a panic that escapes the per-job guards must
            // not silently kill every future write. The failed group's
            // submitters see their reply channels drop (the existing
            // "mutator dropped the write" mapping); the supervisor
            // restores the master from the last published snapshot and
            // keeps serving — or degrades to read-only once the restart
            // budget is spent.
            let outcome =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| self.process_group(jobs)));
            let mut shutdown_acks = match outcome {
                Ok(acks) => acks,
                Err(_) => {
                    self.recover_master();
                    if self.closing.load(Ordering::SeqCst) {
                        // A Shutdown job may have died with the group
                        // (its ack channel dropped with it): still leave
                        // a durable tail and let the join succeed.
                        self.sync_tail();
                        return;
                    }
                    continue;
                }
            };
            if !shutdown_acks.is_empty() {
                // Shutdown: drain whatever slipped in while this group
                // ran, then make the tail durable and ack — the
                // shutdown reply is the durability barrier.
                loop {
                    let mut rest = Vec::new();
                    while let Ok(j) = rx.try_recv() {
                        rest.push(j);
                    }
                    if rest.is_empty() {
                        break;
                    }
                    shutdown_acks.extend(self.reject_for_shutdown(rest));
                }
                self.sync_tail();
                for tx in shutdown_acks {
                    let _ = tx.send(Ok(Response::Ok("shutdown complete".to_string())));
                }
                return;
            }
        }
    }

    /// Rejects a drained group during shutdown: client writes get a
    /// typed `ERR shutdown` (they were never logged — they did NOT
    /// commit), `Shutdown` jobs contribute their ack channels.
    fn reject_for_shutdown(
        &mut self,
        jobs: Vec<WriteJob>,
    ) -> Vec<mpsc::Sender<Result<Response, WireError>>> {
        self.stats
            .pending
            .fetch_sub(jobs.len() as u64, Ordering::Relaxed);
        let mut shutdown_acks = Vec::new();
        for job in jobs {
            match job.op {
                WriteOp::Shutdown => shutdown_acks.push(job.reply),
                _ => {
                    let _ = job.reply.send(Err(WireError::kinded(
                        ErrorKind::Shutdown,
                        "server shut down before the write was logged; it did not commit",
                    )));
                }
            }
        }
        shutdown_acks
    }

    /// The supervisor's restart path: a panic escaped the per-job
    /// guards, so the private master state is suspect. Rebuild it from
    /// the last published snapshot — the newest state any reader can
    /// see, and a prefix of the WAL — and keep serving. The WAL stays
    /// open (ids continuous); records logged by the failed group but
    /// never acked may replay on restart, which the durability contract
    /// allows (acked ⇒ durable, not the converse). Once the budget is
    /// spent the database degrades to read-only instead.
    fn recover_master(&mut self) {
        self.restarts += 1;
        self.stats.mutator_restarts.fetch_add(1, Ordering::Relaxed);
        if self.restarts > RESTART_BUDGET {
            self.enter_degraded(format!(
                "mutator restart budget exhausted ({RESTART_BUDGET} restarts)"
            ));
            return;
        }
        self.set_health(HealthState::Recovering, "restoring from published snapshot");
        self.restore_from_published();
        self.set_health(HealthState::Ok, "");
    }

    /// Rebuilds the private master state from the last published
    /// snapshot — the newest state any reader can observe, and a prefix
    /// of the synced WAL.
    fn restore_from_published(&mut self) {
        let snap = self
            .current
            .read()
            .unwrap_or_else(|p| p.into_inner())
            .clone();
        self.voc = (*snap.voc).clone();
        self.voc_arc = Arc::clone(&snap.voc);
        self.session = snap.session.clone();
        self.prepared = Arc::clone(&snap.prepared);
        self.seq = snap.seq;
    }

    fn set_health(&self, state: HealthState, reason: &str) {
        let mut h = self.health.lock().unwrap_or_else(|p| p.into_inner());
        *h = (state, reason.to_string());
    }

    /// Transitions to read-only degraded mode (idempotent): reads keep
    /// serving the last published snapshot, writes are rejected with
    /// `ERR readonly` carrying `reason`.
    fn enter_degraded(&self, reason: String) {
        let mut h = self.health.lock().unwrap_or_else(|p| p.into_inner());
        if h.0 != HealthState::Degraded {
            self.stats.degraded_entries.fetch_add(1, Ordering::Relaxed);
            eprintln!("indord-server: database degraded to read-only: {reason}");
            *h = (HealthState::Degraded, reason);
        }
    }

    fn degraded_reason(&self) -> Option<String> {
        let h = self.health.lock().unwrap_or_else(|p| p.into_inner());
        (h.0 == HealthState::Degraded).then(|| h.1.clone())
    }

    /// Unconditionally fsyncs appended WAL bytes (shutdown path).
    fn sync_tail(&mut self) {
        if let Some(d) = self.durable.as_mut() {
            if let Err(e) = d.wal.sync() {
                eprintln!("indord-storage: wal sync at shutdown failed: {e}");
            }
            self.mirror_wal_counters();
        }
    }

    /// Copies the WAL's lifetime counters into the shared stats.
    fn mirror_wal_counters(&self) {
        if let Some(d) = self.durable.as_ref() {
            let c = d.wal.counters();
            self.stats.wal_appends.store(c.appends, Ordering::Relaxed);
            self.stats.wal_bytes.store(c.bytes, Ordering::Relaxed);
            self.stats.fsyncs.store(c.fsyncs, Ordering::Relaxed);
        }
    }

    /// Runs one group commit. Returns the reply channels of any
    /// `Shutdown` jobs in the group — non-empty means stop after this
    /// group (the caller syncs the tail and acks them).
    fn process_group(
        &mut self,
        jobs: Vec<WriteJob>,
    ) -> Vec<mpsc::Sender<Result<Response, WireError>>> {
        self.stats
            .pending
            .fetch_sub(jobs.len() as u64, Ordering::Relaxed);
        let group = jobs.len() as u64;
        let mut shutdown_acks = Vec::new();
        let mut flush_acks = Vec::new();
        let mut work = Vec::with_capacity(jobs.len());
        for job in jobs {
            match job.op {
                WriteOp::Shutdown => shutdown_acks.push(job.reply),
                WriteOp::Flush => {
                    if let Some(reason) = self.degraded_reason() {
                        let _ = job.reply.send(Err(WireError::kinded(
                            ErrorKind::ReadOnly,
                            format!("database is read-only (degraded: {reason})"),
                        )));
                    } else if self.durable.is_some() {
                        flush_acks.push(job.reply);
                    } else {
                        let _ = job.reply.send(Err(WireError::proto(
                            "FLUSH requires a durable database (start the server with --data-dir)",
                        )));
                    }
                }
                _ => work.push(job),
            }
        }
        // Classify against the pre-group state and stably sort patchable
        // writes first, so a scaffold-dropping structural write doesn't
        // force its groupmates off the patch path. The sort only
        // reorders across concurrent clients (each client blocks per
        // write, so its own order is preserved); a fragment depending on
        // a groupmate's fresh constants is conservatively classified
        // structural, which only affects the ordering, not the result.
        // The WAL records what the sort decided: appends happen in
        // apply order, so replay IS the committed order.
        //
        // Phase timing is always-on here: a write already pays for
        // allocation, WAL I/O, and a snapshot publish, so the handful of
        // `Instant` reads per job vanish into it — and `TRACE`d writes
        // plus the slow-query log get real queue-wait/fsync numbers
        // without a warm-up request.
        let drained_raw = clock::raw_now();
        let mut keyed: Vec<(bool, WriteJob, PhaseTimes)> = work
            .into_iter()
            .map(|j| {
                let mut pt = PhaseTimes::new();
                pt.add(Phase::QueueWait, drained_raw.saturating_sub(j.enqueued_raw));
                let t0 = clock::raw_now();
                let structural = is_structural(&j.op, &mut self.voc, &self.session);
                pt.add(Phase::Classify, clock::raw_now().saturating_sub(t0));
                (structural, j, pt)
            })
            .collect();
        keyed.sort_by_key(|(structural, _, _)| *structural);
        let group_mark = self.voc.mark();
        let drops_mark = self.session.stats().cache_drops;
        let mut replies = Vec::with_capacity(keyed.len());
        let mut mutated = false;
        let mut prepared_changed = false;
        for (structural, job, mut pt) in keyed {
            // Already degraded (a WAL death earlier in this very group,
            // or a previous one): every remaining write is refused with
            // the typed read-only error — nothing is logged or applied.
            if let Some(reason) = self.degraded_reason() {
                replies.push((
                    job.reply,
                    Err(WireError::kinded(
                        ErrorKind::ReadOnly,
                        format!("database is read-only (degraded: {reason})"),
                    )),
                    job.phases,
                    pt,
                ));
                continue;
            }
            // Escaped-panic injection (test-support): blows up outside
            // the per-job guard so the supervisor path is exercised.
            if matches!(job.op, WriteOp::Boom { escape: true }) {
                panic!("injected mutator panic (escape)");
            }
            // Log before apply: the record hits the WAL buffer first, so
            // an acked write can never exist only in memory. A record
            // whose apply then fails is harmless in the log — replay
            // re-fails it deterministically. A record the WAL *rejects*
            // (I/O error; under `always`, a failed per-record sync)
            // means the WAL I/O is dead: this write is refused, and the
            // database transitions to read-only degraded mode rather
            // than silently dropping durability.
            let mut wal_death: Option<String> = None;
            if let Some(d) = self.durable.as_mut() {
                let payload = match &job.op {
                    WriteOp::Fragment(fragment) => Some(format!("FACT {fragment}")),
                    WriteOp::Prepare { name, query } => Some(format!("PREPARE {name}: {query}")),
                    _ => None,
                };
                if let Some(payload) = payload {
                    let t0 = clock::raw_now();
                    match d.wal.append(payload.as_bytes()) {
                        Ok(_) => d.since_snapshot += 1,
                        Err(e) => wal_death = Some(e.to_string()),
                    }
                    pt.add(Phase::WalAppend, clock::raw_now().saturating_sub(t0));
                }
            }
            if let Some(e) = wal_death {
                self.enter_degraded(format!("write-ahead log append failed: {e}"));
                replies.push((
                    job.reply,
                    Err(WireError::kinded(
                        ErrorKind::ReadOnly,
                        format!("write-ahead log append failed ({e}); database is now read-only"),
                    )),
                    job.phases,
                    pt,
                ));
                continue;
            }
            // A panic must not take the mutator (and with it every
            // future write) down: report it as the typed internal error
            // the lock-era per-client catch_unwind produced.
            let apply_t0 = clock::raw_now();
            let (result, changed) = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                apply_write(
                    &mut self.voc,
                    &mut self.session,
                    &mut self.prepared,
                    &self.stats,
                    &job.op,
                )
            }))
            .unwrap_or_else(|_| {
                (
                    Err(WireError::proto(
                        "internal error while applying the write; rolled back",
                    )),
                    false,
                )
            });
            pt.add(Phase::Apply, clock::raw_now().saturating_sub(apply_t0));
            if changed {
                mutated = true;
                match &job.op {
                    WriteOp::Fragment(_) => {
                        if structural {
                            self.stats.structural_writes.fetch_add(1, Ordering::Relaxed);
                        } else {
                            self.stats.patchable_writes.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    WriteOp::Prepare { name, query } if result.is_ok() => {
                        prepared_changed = true;
                        if let Some(d) = self.durable.as_mut() {
                            d.prepared_src.insert(name.clone(), query.clone());
                        }
                    }
                    _ => {}
                }
            }
            replies.push((job.reply, result, job.phases, pt));
        }
        // The group-commit durability barrier: sync the appended records
        // *before* the snapshot publish and the replies. On a failed
        // sync the group's records were still handed to the WAL (the
        // per-record appends succeeded — a failing append rejects its
        // write above), so the applied prefix stays acked exactly as it
        // always has; what changes is the future: the database
        // transitions to typed read-only degraded mode instead of
        // silently dropping durability, so nothing after this group
        // pretends to be durable.
        let mut sync_failed: Option<String> = None;
        let mut fsync_raw = 0u64;
        if let Some(d) = self.durable.as_mut() {
            let t0 = clock::raw_now();
            if let Err(e) = d.wal.commit() {
                sync_failed = Some(e.to_string());
            }
            fsync_raw = clock::raw_now().saturating_sub(t0);
        }
        if let Some(e) = sync_failed {
            self.enter_degraded(format!("wal fsync failed: {e}"));
        }
        self.mirror_wal_counters();
        let publish_t0 = clock::raw_now();
        if mutated {
            // Warm the master before freezing: the master session never
            // answers queries itself, so without this every published
            // snapshot would be cold and each reader would rebuild the
            // scaffold from scratch.
            let _ = self.session.normal();
            let _ = self.session.disjunctive_scaffold(&self.voc);
            self.seq += 1;
            // Republish the symbol tables only when this group actually
            // interned something: label/edge writes on known constants —
            // the hot path — share the previous `Arc<Vocabulary>` and
            // skip its clone entirely.
            if self.voc.changed_since(group_mark) {
                self.voc_arc = Arc::new(self.voc.clone());
            }
            let frozen = self.session.freeze();
            // Pre-run the prepared registry against the frozen session
            // only when this group dropped the session caches (a
            // structural write rebuilt the scaffold cold) or installed a
            // never-evaluated query. A purely patchable group keeps the
            // scaffold — and with it the shared `D(S,T)` pair table that
            // readers have been warming — so the published snapshot
            // inherits those pairs for free and the O(|prepared|·eval)
            // pre-run would be pure commit latency. After a cache drop
            // the pre-run is what it always was: the price of never
            // publishing a cold snapshot to the read tail.
            if prepared_changed || self.session.stats().cache_drops != drops_mark {
                let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    let eng = Engine::new(&self.voc);
                    for pq in self.prepared.values() {
                        let _ = eng.entails_prepared(&frozen, pq);
                    }
                }));
            }
            let snap = Arc::new(DbSnapshot {
                voc: Arc::clone(&self.voc_arc),
                session: frozen,
                prepared: Arc::clone(&self.prepared),
                seq: self.seq,
                published_at: Instant::now(),
            });
            *self.current.write().unwrap_or_else(|p| p.into_inner()) = snap;
            self.stats
                .snapshots_published
                .fetch_add(1, Ordering::Relaxed);
        }
        let publish_raw = clock::raw_now().saturating_sub(publish_t0);
        // Snapshot + compaction: on cadence, or forced by FLUSH. Runs
        // after the publish (the snapshot equals the state readers now
        // see) and before the flush acks.
        let flush_result = self.maybe_snapshot(!flush_acks.is_empty());
        self.stats.group_commits.fetch_add(1, Ordering::Relaxed);
        self.stats
            .group_fragments
            .fetch_add(group, Ordering::Relaxed);
        self.stats.max_group.fetch_max(group, Ordering::Relaxed);
        // Replies go out only after the publish: the next request from
        // any released writer sees its own write. The group-level fsync
        // and publish costs are attributed to every member (a write's
        // latency really does include them; they are shared, not
        // divided) — and each traced job's slot is filled before its
        // reply, so the submitter reads complete times after recv.
        for (tx, result, slot, mut pt) in replies {
            pt.add(Phase::Fsync, fsync_raw);
            pt.add(Phase::Publish, publish_raw);
            if let Some(slot) = slot {
                slot.lock().unwrap_or_else(|p| p.into_inner()).merge(&pt);
            }
            let _ = tx.send(result);
        }
        for tx in flush_acks {
            let _ = tx.send(flush_result.clone());
        }
        shutdown_acks
    }

    /// Writes a snapshot of the master state and compacts the WAL, when
    /// the cadence says so or a FLUSH forces it. The snapshot is taken
    /// from the mutator's own thread — readers keep serving the
    /// published `Arc<DbSnapshot>` untouched throughout.
    fn maybe_snapshot(&mut self, force: bool) -> Result<Response, WireError> {
        if let Some(reason) = self.degraded_reason() {
            // A degraded database never touches its directory again —
            // the master may be rolled back, and the WAL I/O is suspect.
            return Err(WireError::kinded(
                ErrorKind::ReadOnly,
                format!("database is read-only (degraded: {reason})"),
            ));
        }
        let Some(d) = self.durable.as_mut() else {
            return Err(WireError::proto("no durable storage configured"));
        };
        if !force && d.since_snapshot < d.snapshot_every {
            return Ok(Response::Ok("snapshot not due".to_string()));
        }
        // The id of the last appended record: everything at or below it
        // is folded into this snapshot; replay skips those ids even if
        // the crash lands between the snapshot write and the compaction.
        let snap_id = d.wal.next_id() - 1;
        let payload = durable::encode_snapshot(&self.voc, self.session.database(), &d.prepared_src);
        if let Err(e) = d.dir.write_snapshot(snap_id, payload.as_bytes()) {
            eprintln!(
                "indord-storage: {}: snapshot write failed ({e}); keeping the wal",
                d.dir.path().display()
            );
            return Err(WireError::proto(format!("snapshot write failed: {e}")));
        }
        self.stats.snapshots_written.fetch_add(1, Ordering::Relaxed);
        match d.dir.compact(snap_id) {
            Ok(()) => {
                d.wal.note_compacted();
                d.since_snapshot = 0;
                self.stats.compactions.fetch_add(1, Ordering::Relaxed);
                Ok(Response::Ok(format!(
                    "flushed (snapshot {snap_id}, wal compacted)"
                )))
            }
            Err(e) => {
                // The snapshot is durable; a failed compaction only
                // costs replay time (ids ≤ snap_id are skipped).
                eprintln!(
                    "indord-storage: {}: wal compaction failed ({e})",
                    d.dir.path().display()
                );
                Ok(Response::Ok(format!(
                    "flushed (snapshot {snap_id}, compaction failed: {e})"
                )))
            }
        }
    }
}

/// Applies one write to the master state. Returns the per-client result
/// and whether the state changed (a failed fragment is rolled back and
/// changes nothing).
fn apply_write(
    voc: &mut Vocabulary,
    session: &mut Session,
    prepared: &mut Arc<HashMap<String, PreparedQuery>>,
    stats: &DbStats,
    op: &WriteOp,
) -> (Result<Response, WireError>, bool) {
    match op {
        WriteOp::Fragment(fragment) => match apply_fragment_atomic(voc, session, fragment) {
            Ok(n) => {
                stats.writes.fetch_add(n, Ordering::Relaxed);
                (
                    Ok(Response::Ok(format!(
                        "inserted {n} atoms (epoch {})",
                        session.epoch()
                    ))),
                    true,
                )
            }
            Err(e) => (Err(e), false),
        },
        WriteOp::Prepare { name, query } => match compile_prepared(voc, query).and_then(|pq| {
            let plan = pq.plan().map_err(|e| WireError::from(&e))?;
            Ok((pq, plan))
        }) {
            Ok((pq, plan)) => {
                Arc::make_mut(prepared).insert(name.clone(), pq);
                (
                    Ok(Response::Ok(format!("prepared {name} (plan {plan:?})"))),
                    true,
                )
            }
            Err(e) => (Err(e), false),
        },
        // Filtered out of the group before the apply loop.
        WriteOp::Flush | WriteOp::Shutdown => (
            Err(WireError::proto("control op reached the apply path")),
            false,
        ),
        WriteOp::Stall(d) => {
            thread::sleep(*d);
            (Ok(Response::Ok("stalled".to_string())), false)
        }
        // `escape: true` is intercepted before the per-job guard; this
        // arm is the contained flavor — the per-job `catch_unwind` turns
        // it into the typed internal error, groupmates unaffected.
        WriteOp::Boom { .. } => panic!("injected apply panic"),
    }
}

/// True when the fragment is expected to drop session caches rather
/// than patch in place: it mentions an order constant the current
/// normalization doesn't know (fresh vertices force a rebuild). A
/// fragment that fails to parse classifies as patchable — it fails
/// cheaply wherever it sorts. The classification only orders a group;
/// it never changes what a write does.
fn is_structural(op: &WriteOp, voc: &mut Vocabulary, session: &Session) -> bool {
    let WriteOp::Fragment(text) = op else {
        return false;
    };
    // Speculative parse straight into the master vocabulary, rolled
    // back via mark/truncate — interning is append-only, so truncating
    // removes exactly what this parse added. Far cheaper than cloning
    // the symbol tables per queued job.
    let mark = voc.mark();
    let parsed = parse_database(voc, text);
    let result = match &parsed {
        Err(_) => false,
        Ok(fragment_db) => match session.normal() {
            Err(_) => true,
            Ok(nd) => {
                let known = |u| nd.vertex_of.contains_key(&u);
                fragment_db
                    .proper_atoms()
                    .iter()
                    .any(|a| !a.order_args().all(known))
                    || fragment_db
                        .order_atoms()
                        .iter()
                        .any(|oa| !known(oa.lhs) || !known(oa.rhs))
            }
        },
    };
    voc.truncate(mark);
    result
}

/// Compiles a `PREPARE` query against the vocabulary (constant-free
/// rule enforced). `pub(crate)`: boot recovery compiles the same way.
pub(crate) fn compile_prepared(voc: &Vocabulary, query: &str) -> Result<PreparedQuery, WireError> {
    let q = parse_constant_free(voc, query)?;
    Engine::new(voc)
        .prepare(&q)
        .map_err(|e| WireError::from(&e))
}

/// Applies one fragment all-or-nothing: parse straight into the master
/// vocabulary with a mark/truncate rollback (a failed fragment must
/// leave neither facts nor interned declarations behind — interning is
/// append-only, so truncating to the mark removes exactly this parse's
/// symbols), snapshot-rollback around the can-fail order-atom path, and
/// reject fragments that leave the database without models. Shared by
/// the mutator and — `pub(crate)` — WAL replay (recovery is the live
/// path, re-run).
pub(crate) fn apply_fragment_atomic(
    voc: &mut Vocabulary,
    session: &mut Session,
    fragment: &str,
) -> Result<u64, WireError> {
    let vmark = voc.mark();
    let fragment_db = match parse_database(voc, fragment) {
        Ok(db) => db,
        Err(e) => {
            voc.truncate(vmark);
            return Err(WireError::from(&e));
        }
    };
    // Only order atoms can make the database unsatisfiable (a `<`/`<=`
    // edge closing a `<`-cycle, or a `!=` pair whose endpoints
    // N1-merged — then no model exists and every query is vacuously
    // certain), so only fragments carrying them pay the rollback
    // snapshot — the hot label-fact write path applies directly at
    // in-place-patch cost. The snapshot adopts the current counters
    // *before* the apply: a rolled-back fragment must contribute
    // nothing to the lifetime stats.
    let can_fail = !fragment_db.order_atoms().is_empty();
    let mut saved = can_fail.then(|| {
        let mut s = session.clone();
        s.adopt_counters(session);
        s
    });
    let n = if saved.is_some() {
        // Atomic apply: a panic mid-fragment or a resulting
        // inconsistency restores the snapshot — the shared database is
        // never poisoned or half-written (there is no DELETE to recover
        // with).
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            apply_fragment(session, &fragment_db)
        })) {
            Ok(n) => n,
            Err(_) => {
                *session = saved.take().expect("snapshotted");
                voc.truncate(vmark);
                return Err(WireError::proto(
                    "internal error while applying the fragment; rolled back",
                ));
            }
        }
    } else {
        apply_fragment(session, &fragment_db)
    };
    if saved.is_some() {
        let failure = match session.normal() {
            Err(e) => Some(WireError::from(&e)),
            Ok(nd) if nd.has_contradictory_ne() => Some(WireError {
                kind: crate::protocol::ErrorKind::Inconsistent,
                span: None,
                message: "a != constraint contradicts merged constants; \
                          the database would have no models"
                    .to_string(),
            }),
            Ok(_) => None,
        };
        if let Some(e) = failure {
            *session = saved.take().expect("snapshotted");
            voc.truncate(vmark);
            return Err(e);
        }
    }
    Ok(n)
}

/// The registry of named databases a server (or embedded REPL) serves.
#[derive(Debug)]
pub struct Registry {
    dbs: RwLock<HashMap<String, Arc<Db>>>,
    storage: Option<StorageConfig>,
    /// Commit-queue bound handed to every database this registry
    /// creates (see [`Registry::with_max_queue`]).
    max_queue: usize,
    /// Connections refused by the accept loop's cap — server-wide, so
    /// every database's `STATS` reports the same number.
    conns_rejected: AtomicU64,
}

impl Default for Registry {
    fn default() -> Self {
        Registry {
            dbs: RwLock::new(HashMap::new()),
            storage: None,
            max_queue: DEFAULT_MAX_QUEUE,
            conns_rejected: AtomicU64::new(0),
        }
    }
}

impl Registry {
    /// An empty in-memory registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Sets the commit-queue bound for every database created after
    /// this call (writes beyond the bound are shed with a retryable
    /// `ERR overloaded`). `0` is honored literally — every write beyond
    /// the one the mutator currently holds is shed — which the REPL
    /// retry tests use for deterministic exhaustion.
    #[must_use]
    pub fn with_max_queue(mut self, max_queue: usize) -> Self {
        self.max_queue = max_queue;
        self
    }

    /// The commit-queue bound databases are created with.
    pub fn max_queue(&self) -> usize {
        self.max_queue
    }

    /// Connections refused by the accept loop's connection cap.
    pub fn conns_rejected(&self) -> u64 {
        self.conns_rejected.load(Ordering::Relaxed)
    }

    /// Counts one connection refused at the accept loop.
    pub(crate) fn note_conn_rejected(&self) {
        self.conns_rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// A durable registry rooted at `cfg.root`: every database directory
    /// already present is recovered *now* — snapshot load, WAL replay,
    /// torn-tail truncation, scaffold + prepared warmup — so the first
    /// request after this returns serves warm. Databases opened later
    /// get their own directory under the root.
    pub fn with_storage(cfg: StorageConfig) -> std::io::Result<Self> {
        Registry::with_storage_and_queue(cfg, DEFAULT_MAX_QUEUE)
    }

    /// [`Registry::with_storage`] with an explicit commit-queue bound —
    /// recovery happens after the bound is known, so databases already
    /// on disk get the same bound as ones opened later.
    pub fn with_storage_and_queue(cfg: StorageConfig, max_queue: usize) -> std::io::Result<Self> {
        std::fs::create_dir_all(&cfg.root)?;
        let mut dbs = HashMap::new();
        let mut names: Vec<(String, std::path::PathBuf)> = Vec::new();
        for entry in std::fs::read_dir(&cfg.root)? {
            let entry = entry?;
            if !entry.file_type()?.is_dir() {
                continue;
            }
            let Ok(name) = entry.file_name().into_string() else {
                continue;
            };
            names.push((name, entry.path()));
        }
        // Deterministic recovery order (read_dir order is arbitrary).
        names.sort();
        for (name, path) in names {
            let dir = DbDir::open(path)?;
            let state = durable::recover_state(&dir)?;
            dbs.insert(name, Arc::new(Db::recovered(state, dir, &cfg, max_queue)?));
        }
        Ok(Registry {
            dbs: RwLock::new(dbs),
            storage: Some(cfg),
            max_queue,
            conns_rejected: AtomicU64::new(0),
        })
    }

    /// The storage configuration, when this registry is durable.
    pub fn storage(&self) -> Option<&StorageConfig> {
        self.storage.as_ref()
    }

    /// A fresh durable database in its own (new or empty) directory.
    fn create_durable(&self, cfg: &StorageConfig, name: &str) -> std::io::Result<Db> {
        let dir = DbDir::open(cfg.root.join(name))?;
        let state = durable::recover_state(&dir)?;
        Db::recovered(state, dir, cfg, self.max_queue)
    }

    /// Create-or-get the named database (the `OPEN` semantics). Under a
    /// durable registry the database gets its own directory; if that
    /// fails (disk full, permissions) the database still opens, loudly,
    /// as in-memory — serving beats refusing, and the warning tells the
    /// operator which databases are not covered by the data dir.
    pub fn open(&self, name: &str) -> Arc<Db> {
        let mut dbs = self.dbs.write().unwrap_or_else(|p| p.into_inner());
        dbs.entry(name.to_string())
            .or_insert_with(|| {
                if let Some(cfg) = &self.storage {
                    match self.create_durable(cfg, name) {
                        Ok(db) => return Arc::new(db),
                        Err(e) => eprintln!(
                            "indord-storage: cannot open a data directory for `{name}` ({e}); \
                             this database is IN-MEMORY ONLY"
                        ),
                    }
                }
                Arc::new(Db::new(Vocabulary::new(), Database::new(), self.max_queue))
            })
            .clone()
    }

    /// Looks up an existing database (the `USE` semantics).
    pub fn get(&self, name: &str) -> Option<Arc<Db>> {
        self.dbs
            .read()
            .unwrap_or_else(|p| p.into_inner())
            .get(name)
            .cloned()
    }

    /// Installs a database built programmatically (benches, tests,
    /// embedded seeding) under `name`, replacing any previous holder.
    /// Under a durable registry the installed state is written as the
    /// database's initial snapshot (replacing whatever its directory
    /// held), so it survives restarts like any other state.
    pub fn install(&self, name: &str, voc: Vocabulary, db: Database) -> Arc<Db> {
        let holder = if let Some(cfg) = &self.storage {
            match self.install_durable(cfg, name, &voc, &db) {
                Ok(d) => Arc::new(d),
                Err(e) => {
                    eprintln!(
                        "indord-storage: cannot persist installed database `{name}` ({e}); \
                         this database is IN-MEMORY ONLY"
                    );
                    Arc::new(Db::new(voc, db, self.max_queue))
                }
            }
        } else {
            Arc::new(Db::new(voc, db, self.max_queue))
        };
        self.dbs
            .write()
            .unwrap_or_else(|p| p.into_inner())
            .insert(name.to_string(), holder.clone());
        holder
    }

    /// Resets the database's directory and seeds it with an initial
    /// snapshot of the installed state (id 0: every WAL record — they
    /// start at 1 — replays on top of it).
    fn install_durable(
        &self,
        cfg: &StorageConfig,
        name: &str,
        voc: &Vocabulary,
        db: &Database,
    ) -> std::io::Result<Db> {
        let dir = DbDir::open(cfg.root.join(name))?;
        dir.reset()?;
        let payload = durable::encode_snapshot(voc, db, &HashMap::new());
        dir.write_snapshot(0, payload.as_bytes())?;
        let state = durable::recover_state(&dir)?;
        Db::recovered(state, dir, cfg, self.max_queue)
    }

    /// Test-support: like [`Registry::install`] on a durable registry,
    /// but the database's WAL is the caller's — typically one built on
    /// a fault-injecting [`indord_storage::FaultIo`] — instead of the
    /// directory's file WAL. The installed state is still written as the
    /// directory's initial snapshot, so crash-recovery tests can restart
    /// from the directory afterwards. Not part of the public API.
    #[doc(hidden)]
    pub fn install_durable_with_wal(
        &self,
        name: &str,
        voc: Vocabulary,
        db: Database,
        wal: Wal,
    ) -> std::io::Result<Arc<Db>> {
        let cfg = self
            .storage
            .as_ref()
            .expect("install_durable_with_wal requires a durable registry");
        let dir = DbDir::open(cfg.root.join(name))?;
        dir.reset()?;
        let payload = durable::encode_snapshot(&voc, &db, &HashMap::new());
        dir.write_snapshot(0, payload.as_bytes())?;
        let durable = DurableState {
            dir,
            wal,
            snapshot_every: cfg.snapshot_every.max(1),
            since_snapshot: 0,
            prepared_src: HashMap::new(),
        };
        let holder = Arc::new(Db::build(
            voc,
            Session::new(db),
            HashMap::new(),
            Some(durable),
            self.max_queue,
        ));
        self.dbs
            .write()
            .unwrap_or_else(|p| p.into_inner())
            .insert(name.to_string(), holder.clone());
        Ok(holder)
    }

    /// Names of the registered databases, sorted.
    pub fn names(&self) -> Vec<String> {
        let mut v: Vec<String> = self
            .dbs
            .read()
            .unwrap_or_else(|p| p.into_inner())
            .keys()
            .cloned()
            .collect();
        v.sort();
        v
    }

    /// Graceful shutdown of every database: drain each commit queue,
    /// fsync each WAL tail, and join each mutator thread. Idempotent;
    /// also runs on drop. After this, reads keep serving the last
    /// published snapshots and writes fail with a typed error.
    pub fn shutdown_dbs(&self) {
        let dbs: Vec<Arc<Db>> = self
            .dbs
            .read()
            .unwrap_or_else(|p| p.into_inner())
            .values()
            .cloned()
            .collect();
        for db in dbs {
            db.shutdown_mutator();
        }
    }
}

impl Drop for Registry {
    fn drop(&mut self) {
        // `Db::drop` joins too, but only when the *last* Arc goes; a
        // leaked clone must not leave an unsynced WAL tail behind.
        self.shutdown_dbs();
    }
}

/// Whether [`Conn::execute`] materializes a [`TraceReport`] — kept off
/// the fast path, because building one costs a request re-render, a
/// response first-line render, and a session-stats diff.
enum ReportMode<'a> {
    /// Untraced request: never.
    Never,
    /// `TRACE`: always; the caller pre-rendered the inner request text.
    Always(String),
    /// Slow log: only when total wall time exceeds the threshold (ns).
    /// The original wire line, when known, becomes the report's request
    /// text — so nothing is re-rendered per request.
    IfSlowerThan(u64, Option<&'a str>),
}

/// Per-connection dispatch state: the selected database. One `Conn` per
/// client socket (or per embedded REPL).
pub struct Conn {
    registry: Arc<Registry>,
    current: Option<Arc<Db>>,
    /// Name of the selected database (`METRICS` labels and the
    /// slow-query log need it; the `Arc<Db>` doesn't know its name).
    current_name: Option<String>,
    /// Deadline applied to every request that doesn't carry its own
    /// `DEADLINE <ms>` prefix (`--request-timeout`). `None` = no limit.
    default_deadline: Option<Duration>,
    /// Slow-query threshold (`--slow-ms`): requests are traced and ones
    /// over the threshold log their full phase breakdown to stderr.
    /// `None` (the default) = no tracing, no logging.
    slow_ms: Option<u64>,
}

impl Conn {
    /// A connection with no database selected.
    pub fn new(registry: Arc<Registry>) -> Self {
        Conn {
            registry,
            current: None,
            current_name: None,
            default_deadline: None,
            slow_ms: None,
        }
    }

    /// Sets the default per-request deadline (`--request-timeout`); a
    /// request's own `DEADLINE <ms>` prefix overrides it.
    #[must_use]
    pub fn with_request_timeout(mut self, timeout: Option<Duration>) -> Self {
        self.default_deadline = timeout;
        self
    }

    /// Sets the slow-query threshold (`--slow-ms`): every request on
    /// this connection is traced, and ones over the threshold write
    /// their full phase breakdown to stderr.
    #[must_use]
    pub fn with_slow_ms(mut self, slow_ms: Option<u64>) -> Self {
        self.slow_ms = slow_ms;
        self
    }

    /// Parses and dispatches one request line; parse-error spans are
    /// shifted into line coordinates so clients can caret the line they
    /// sent. An optional `DEADLINE <ms>` prefix bounds this request:
    /// reads poll it cooperatively inside the search loop, writes stop
    /// waiting for their ack when it expires.
    pub fn handle_line(&mut self, line: &str) -> Response {
        match Request::parse_with_deadline(line) {
            Ok((req, payload, deadline)) => {
                let deadline = deadline
                    .or(self.default_deadline)
                    .map(|d| Instant::now() + d);
                match self.handle_traced(req, deadline, Some(line)) {
                    Response::Error(e) => Response::Error(e.shift_span(payload)),
                    resp => resp,
                }
            }
            Err(e) => Response::Error(e),
        }
    }

    /// Dispatches one typed request. Parse-error spans in the reply are
    /// relative to the request's payload text (see
    /// [`Conn::handle_line`] for line coordinates).
    pub fn handle(&mut self, req: Request) -> Response {
        let deadline = self.default_deadline.map(|d| Instant::now() + d);
        self.handle_traced(req, deadline, None)
    }

    /// `line` is the original wire text, when this request came off a
    /// socket: the slow-query log reports it verbatim instead of paying
    /// a `Display` re-render of the request on the per-request path. A
    /// programmatic [`Conn::handle`] has no line and slow-logs `-`.
    fn handle_traced(
        &mut self,
        req: Request,
        deadline: Option<Instant>,
        line: Option<&str>,
    ) -> Response {
        // `TRACE <request>`: execute the inner request with an enabled
        // recorder and answer with the phase/counter report instead of
        // the inner reply (whose outcome line the report carries).
        if let Request::Trace(inner) = req {
            let mut rec = TraceRecorder::enabled();
            let req_text = inner.to_string();
            let (_, report) =
                self.execute(*inner, deadline, &mut rec, ReportMode::Always(req_text));
            let report = report.expect("ReportMode::Always yields a report");
            return Response::Trace(report.render_body());
        }
        let slow = self.slow_ms;
        let mut rec = TraceRecorder::new(slow.is_some());
        let mode = match slow {
            Some(ms) => ReportMode::IfSlowerThan(ms.saturating_mul(1_000_000), line),
            None => ReportMode::Never,
        };
        let (resp, report) = self.execute(req, deadline, &mut rec, mode);
        // `report` is only materialized for requests over the
        // threshold — the fast path records phases and nothing else.
        if let (Some(ms), Some(report)) = (slow, report) {
            let db = self.current_name.as_deref().unwrap_or("-");
            let seq = self
                .current
                .as_ref()
                .and_then(|d| d.read_snapshot())
                .map_or(0, |s| s.seq());
            eprintln!("{}", report.render_slow_line(db, seq, ms));
        }
        resp
    }

    /// Runs one request under `rec`: dispatch, then the per-request
    /// accounting — verb/status latency, fired-route latency, engine
    /// counter deltas, deadline-abort attribution (aborts record their
    /// elapsed-at-abort under the `aborted` status label rather than
    /// polluting the completed tail). Returns the response plus a
    /// [`TraceReport`] when `mode` asks for one.
    fn execute(
        &mut self,
        req: Request,
        deadline: Option<Instant>,
        rec: &mut TraceRecorder,
        mode: ReportMode<'_>,
    ) -> (Response, Option<TraceReport>) {
        let verb = verb_of(&req);
        let counters_before = counters::snapshot();
        // The scaffold-maintenance diff only surfaces in `TRACE` bodies
        // (the slow-log line doesn't carry it), so only `Always` mode
        // pays the before-capture — slow-mode requests skip it.
        let session_before = matches!(mode, ReportMode::Always(_))
            .then(|| self.current.as_ref().map(|db| db.view().session().stats()))
            .flatten();
        let start = Instant::now();
        let result = self.dispatch(req, deadline, rec);
        let elapsed = start.elapsed().as_nanos() as u64;
        let delta = counters::snapshot().delta_since(&counters_before);
        let fired = route::take();
        let aborted = matches!(&result, Err(e) if e.kind == ErrorKind::Deadline);
        if let Some(db) = &self.current {
            let m = db.stats.metrics();
            if let Some(v) = verb {
                let status = if aborted { Status::Aborted } else { Status::Ok };
                m.record_verb(v, status, elapsed);
            }
            if let Some(r) = fired {
                m.record_route(r, elapsed);
            }
            m.add_engine_counters(&delta);
            if aborted {
                db.stats.deadline_aborts.fetch_add(1, Ordering::Relaxed);
            }
        }
        let resp = match result {
            Ok(resp) => resp,
            Err(e) => Response::Error(e),
        };
        // Materializing the report costs allocations and renders — it
        // happens for `TRACE` (explicitly asked) and for slow-logged
        // requests (already slow), never on the per-request fast path.
        let request = match mode {
            ReportMode::Never => None,
            ReportMode::Always(text) => Some(text),
            ReportMode::IfSlowerThan(threshold_ns, line) => {
                (elapsed > threshold_ns).then(|| line.unwrap_or("-").to_string())
            }
        };
        let report = request.map(|request| {
            let session_after = session_before
                .is_some()
                .then(|| self.current.as_ref().map(|db| db.view().session().stats()))
                .flatten();
            let (builds, patches, evictions) = match (session_before, session_after) {
                (Some(b), Some(a)) => (
                    a.scaffold_builds.saturating_sub(b.scaffold_builds),
                    a.in_place_patches.saturating_sub(b.in_place_patches),
                    a.pair_evictions.saturating_sub(b.pair_evictions),
                ),
                _ => (0, 0, 0),
            };
            TraceReport {
                request,
                route: fired.map(|r| r.as_str()),
                total_ns: elapsed,
                times: rec.times_ns(elapsed).unwrap_or_default(),
                counters: delta,
                scaffold_builds: builds,
                in_place_patches: patches,
                pair_evictions: evictions,
                outcome: resp.render().lines().next().unwrap_or_default().to_string(),
            }
        });
        (resp, report)
    }

    fn current(&self) -> Result<&Arc<Db>, WireError> {
        self.current
            .as_ref()
            .ok_or_else(|| WireError::registry("no database selected (OPEN <name> first)"))
    }

    /// Submits a write, threading a [`PhaseTimes`] slot through the
    /// mutator when the recorder is enabled so the queue-wait / WAL /
    /// fsync / publish phases measured on the mutator thread fold back
    /// into this request's trace.
    fn submit_write(
        &self,
        db: &Arc<Db>,
        op: WriteOp,
        deadline: Option<Instant>,
        rec: &mut TraceRecorder,
    ) -> Result<Response, WireError> {
        if !rec.is_enabled() {
            return db.submit_deadline(op, deadline);
        }
        let slot = Arc::new(Mutex::new(PhaseTimes::new()));
        let result = db.submit_deadline_traced(op, deadline, Some(slot.clone()));
        rec.merge(&slot.lock().unwrap_or_else(|p| p.into_inner()));
        result
    }

    fn dispatch(
        &mut self,
        req: Request,
        deadline: Option<Instant>,
        rec: &mut TraceRecorder,
    ) -> Result<Response, WireError> {
        match req {
            Request::Open(name) => {
                let db = self.registry.open(&name);
                let atoms = db.view().session().len();
                self.current = Some(db);
                self.current_name = Some(name.clone());
                Ok(Response::Ok(format!("using {name} ({atoms} atoms)")))
            }
            Request::Use(name) => {
                let db = self
                    .registry
                    .get(&name)
                    .ok_or_else(|| WireError::registry(format!("unknown database `{name}`")))?;
                let atoms = db.view().session().len();
                self.current = Some(db);
                self.current_name = Some(name.clone());
                Ok(Response::Ok(format!("using {name} ({atoms} atoms)")))
            }
            Request::Fact(fragment) => {
                let db = self.current()?.clone();
                self.submit_write(&db, WriteOp::Fragment(fragment), deadline, rec)
            }
            Request::Prepare { name, query } => {
                let db = self.current()?.clone();
                self.submit_write(&db, WriteOp::Prepare { name, query }, deadline, rec)
            }
            Request::Entail(target) => {
                let db = self.current()?.clone();
                self.evaluate(&db, &target, false, deadline, rec)
            }
            Request::Countermodel(target) => {
                let db = self.current()?.clone();
                self.evaluate(&db, &target, true, deadline, rec)
            }
            Request::Batch(names) => {
                // One view for the whole batch: every verdict in the
                // reply is computed against the same snapshot (see the
                // protocol docs' consistency contract).
                let db = self.current()?.clone();
                let view = db.view();
                let pqs = rec.time(Phase::Plan, || -> Result<Vec<_>, WireError> {
                    names
                        .iter()
                        .map(|name| {
                            view.prepared(name).ok_or_else(|| {
                                WireError::registry(format!("unknown prepared query `{name}`"))
                            })
                        })
                        .collect()
                })?;
                let mut eng = Engine::new(view.vocabulary());
                if let Some(d) = deadline {
                    eng = eng.with_deadline(d);
                }
                let verdicts = rec.time(Phase::Search, || -> Result<Vec<_>, WireError> {
                    names
                        .iter()
                        .zip(&pqs)
                        .map(|(name, pq)| {
                            let v = eng
                                .entails_prepared(view.session(), pq)
                                .map_err(|e| WireError::from(&e))?;
                            Ok((name.clone(), v.holds()))
                        })
                        .collect()
                })?;
                let n = names.len() as u64;
                db.stats.queries.fetch_add(n, Ordering::Relaxed);
                db.stats.prepared_hits.fetch_add(n, Ordering::Relaxed);
                Ok(Response::Verdicts(verdicts))
            }
            Request::Explain(target) => {
                let db = self.current()?.clone();
                let view = db.view();
                let inline;
                let (name, pq) = match &target {
                    Target::Prepared(name) => {
                        let pq = view.prepared(name).ok_or_else(|| {
                            WireError::registry(format!("unknown prepared query `{name}`"))
                        })?;
                        (name, pq)
                    }
                    Target::Inline(text) => {
                        // Same constant-free rule as PREPARE: an inline
                        // plan is compiled here exactly as PREPARE would,
                        // and constants would pin guard facts that only
                        // exist per evaluation.
                        let pq = compile_prepared(view.vocabulary(), text).map_err(|e| {
                            if e.message.contains("constant-free") {
                                WireError::proto(
                                    "EXPLAIN of an inline query requires it constant-free \
                                     (constants are supported on inline ENTAIL)",
                                )
                            } else {
                                e
                            }
                        })?;
                        inline = pq;
                        (text, &inline)
                    }
                };
                // The route an ENTAIL on this snapshot takes, chosen the
                // same way without running it.
                let route = Engine::new(view.vocabulary())
                    .explain_route(view.session(), pq)
                    .map_err(|e| WireError::from(&e))?;
                Ok(Response::Explain(render_explain(name, pq, route)))
            }
            // Nested TRACE is rejected at parse time and intercepted in
            // `handle_with_deadline`; a programmatic `handle(Trace(..))`
            // still lands here — run the inner request untraced.
            Request::Trace(inner) => self.dispatch(*inner, deadline, rec),
            Request::Metrics => {
                let db = self.current()?.clone();
                let name = self.current_name.as_deref().unwrap_or("-");
                Ok(Response::Metrics(
                    db.stats.metrics().render_prometheus(name),
                ))
            }
            Request::Stats => {
                let db = self.current()?.clone();
                let view = db.view();
                let session_stats = view.session().stats();
                let (p50_ns, p99_ns) = db.stats.metrics.p50_p99();
                let queue_depth_p99 = db.stats.metrics.queue_depth_histogram().quantile(0.99);
                Ok(Response::Stats(Box::new(StatsReply {
                    atoms: view.session().len() as u64,
                    epoch: session_stats.epoch,
                    prepared: view.prepared_len() as u64,
                    queries: db.stats.queries.load(Ordering::Relaxed),
                    prepared_hits: db.stats.prepared_hits.load(Ordering::Relaxed),
                    writes: db.stats.writes.load(Ordering::Relaxed),
                    scaffold_builds: session_stats.scaffold_builds,
                    scaffold_rebuilds: session_stats.scaffold_rebuilds(),
                    in_place_patches: session_stats.in_place_patches,
                    cache_drops: session_stats.cache_drops,
                    pair_evictions: session_stats.pair_evictions,
                    contention_fallbacks: session_stats.contention_fallbacks,
                    p50_ns,
                    p99_ns,
                    commit_queue_depth: db.stats.pending.load(Ordering::Relaxed),
                    queue_depth_p99,
                    group_commits: db.stats.group_commits.load(Ordering::Relaxed),
                    group_fragments: db.stats.group_fragments.load(Ordering::Relaxed),
                    max_group: db.stats.max_group.load(Ordering::Relaxed),
                    snapshots_published: db.stats.snapshots_published.load(Ordering::Relaxed),
                    patchable_writes: db.stats.patchable_writes.load(Ordering::Relaxed),
                    structural_writes: db.stats.structural_writes.load(Ordering::Relaxed),
                    snapshot_age_ns: view.age_ns(),
                    wal_appends: db.stats.wal_appends.load(Ordering::Relaxed),
                    wal_bytes: db.stats.wal_bytes.load(Ordering::Relaxed),
                    fsyncs: db.stats.fsyncs.load(Ordering::Relaxed),
                    snapshots_written: db.stats.snapshots_written.load(Ordering::Relaxed),
                    compactions: db.stats.compactions.load(Ordering::Relaxed),
                    recovery_replayed_fragments: db
                        .stats
                        .recovery_replayed_fragments
                        .load(Ordering::Relaxed),
                    recovery_truncated_bytes: db
                        .stats
                        .recovery_truncated_bytes
                        .load(Ordering::Relaxed),
                    writes_shed: db.stats.writes_shed.load(Ordering::Relaxed),
                    deadline_aborts: db.stats.deadline_aborts.load(Ordering::Relaxed),
                    conns_rejected: self.registry.conns_rejected(),
                    mutator_restarts: db.stats.mutator_restarts.load(Ordering::Relaxed),
                    degraded_entries: db.stats.degraded_entries.load(Ordering::Relaxed),
                })))
            }
            Request::Health => {
                let db = self.current()?.clone();
                let (state, detail) = db.health();
                // Liveness signals ride on the detail line: how stale the
                // published snapshot is and how deep the commit queue
                // stands, so a probe can alert on a wedged mutator before
                // it trips the supervisor.
                let age_ms = db.view().age_ns() / 1_000_000;
                let depth = db.stats.pending.load(Ordering::Relaxed);
                let extra = format!("snapshot_age_ms={age_ms} commit_queue_depth={depth}");
                let detail = if detail.is_empty() {
                    extra
                } else {
                    format!("{detail}; {extra}")
                };
                Ok(Response::Health { state, detail })
            }
            Request::Flush => {
                let db = self.current()?.clone();
                self.submit_write(&db, WriteOp::Flush, deadline, rec)
            }
            Request::Close => Ok(Response::Bye),
        }
    }

    /// Evaluates an `ENTAIL`/`COUNTERMODEL` target against a pinned
    /// read view and renders the reply — verdict only, or with the
    /// countermodel witness when `witness` is set. Prepared names hit
    /// the registry and the warm session; inline text is parsed per
    /// request (constants supported — the guard facts of §2 constant
    /// elimination evaluate against an augmented one-shot view, leaving
    /// the shared state untouched). Rendering happens here, under the
    /// vocabulary the verdict was produced with: a constant-carrying
    /// query's countermodel mentions guard predicates that exist only
    /// in the request-local vocabulary.
    fn evaluate(
        &self,
        db: &Arc<Db>,
        target: &Target,
        witness: bool,
        deadline: Option<Instant>,
        rec: &mut TraceRecorder,
    ) -> Result<Response, WireError> {
        let view = db.view();
        // The deadline rides into the Theorem 5.3 search loop, which
        // polls it cooperatively and abandons the search with a typed
        // `ERR deadline` — the worker returns to the pool immediately.
        fn engine_for(voc: &Vocabulary, deadline: Option<Instant>) -> Engine<'_> {
            let mut eng = Engine::new(voc);
            if let Some(d) = deadline {
                eng = eng.with_deadline(d);
            }
            eng
        }
        let resp = match target {
            Target::Prepared(name) => {
                // Laps, not `time()` closures: this is the hottest read
                // path, and one clock read per boundary keeps the traced
                // tax within the bench gate's 5% budget. Laps land
                // *before* each `?` so an erroring phase still shows up
                // in its trace (deadline aborts attribute their
                // elapsed-at-abort to the search phase).
                let pq = view
                    .prepared(name)
                    .ok_or_else(|| WireError::registry(format!("unknown prepared query `{name}`")));
                rec.lap(Phase::Plan);
                let pq = pq?;
                db.stats.prepared_hits.fetch_add(1, Ordering::Relaxed);
                // Warmth check surfaced as its own phase: a cold
                // disjunctive scaffold rebuilds here rather than inside
                // the search, so TRACE separates "paid to warm" from
                // "paid to search".
                let _ = view.session().disjunctive_scaffold(view.vocabulary());
                rec.lap(Phase::Scaffold);
                let v = engine_for(view.vocabulary(), deadline)
                    .entails_prepared(view.session(), pq)
                    .map_err(|e| WireError::from(&e));
                rec.lap(Phase::Search);
                let out = render_verdict(v?, view.vocabulary(), witness);
                rec.lap(Phase::Render);
                out
            }
            Target::Inline(text) => {
                let expr =
                    parse_query_expr_in(view.vocabulary(), text).map_err(|e| WireError::from(&e));
                rec.lap(Phase::Parse);
                let expr = expr?;
                if !mentions_constants(&expr) {
                    // Constant-free (the common fast path): straight to
                    // DNF — no database or vocabulary clone — and
                    // evaluate against the pinned warm session.
                    let eng = engine_for(view.vocabulary(), deadline);
                    let pq = expr
                        .to_dnf(view.vocabulary())
                        .map_err(|e| WireError::from(&e))
                        .and_then(|q| eng.prepare(&q).map_err(|e| WireError::from(&e)));
                    rec.lap(Phase::Plan);
                    let pq = pq?;
                    let _ = view.session().disjunctive_scaffold(view.vocabulary());
                    rec.lap(Phase::Scaffold);
                    let v = eng
                        .entails_prepared(view.session(), &pq)
                        .map_err(|e| WireError::from(&e));
                    rec.lap(Phase::Search);
                    let out = render_verdict(v?, view.vocabulary(), witness);
                    rec.lap(Phase::Render);
                    out
                } else {
                    // Constants in the query: clone-and-augment the
                    // vocabulary and database with their guard facts
                    // (§2) — one-shot evaluation under the
                    // request-local vocabulary.
                    let planned = (|| {
                        let mut voc2 = view.vocabulary().clone();
                        let (aug_db, q) =
                            eliminate_constants(&mut voc2, view.session().database(), &expr)
                                .map_err(|e| WireError::from(&e))?;
                        Ok::<_, WireError>((voc2, aug_db, q))
                    })();
                    rec.lap(Phase::Plan);
                    let (voc2, aug_db, q) = planned?;
                    let v = engine_for(&voc2, deadline)
                        .entails(&aug_db, &q)
                        .map_err(|e| WireError::from(&e));
                    rec.lap(Phase::Search);
                    let out = render_verdict(v?, &voc2, witness);
                    rec.lap(Phase::Render);
                    out
                }
            }
        };
        db.stats.queries.fetch_add(1, Ordering::Relaxed);
        Ok(resp)
    }
}

/// Applies a parsed fragment to the session atom-by-atom (proper facts
/// then order atoms), returning the atom count. Every write routes
/// through the session's in-place patching.
fn apply_fragment(session: &mut Session, fragment_db: &Database) -> u64 {
    let mut n = 0u64;
    for atom in fragment_db.proper_atoms() {
        session.push_proper(atom.clone());
        n += 1;
    }
    for oa in fragment_db.order_atoms() {
        match oa.rel {
            OrderRel::Lt => session.assert_lt(oa.lhs, oa.rhs),
            OrderRel::Le => session.assert_le(oa.lhs, oa.rhs),
            OrderRel::Ne => session.assert_ne(oa.lhs, oa.rhs),
        }
        n += 1;
    }
    n
}

/// Renders a verdict reply: `CERTAIN`/`NOT-CERTAIN`, or — for
/// `COUNTERMODEL` requests — the witness block. `voc` must be the
/// vocabulary the verdict was produced under.
fn render_verdict(v: Verdict, voc: &Vocabulary, witness: bool) -> Response {
    if !witness {
        return Response::Verdict(v.holds());
    }
    match v {
        Verdict::Entailed => Response::Verdict(true),
        Verdict::MonadicCountermodel(m) => {
            Response::Countermodel(format!("word: {}\n", m.display(voc)))
        }
        Verdict::NaryCountermodel(m) => Response::Countermodel(m.display(voc).to_string()),
    }
}

/// Maps a request to the histogram verb it records under. `None` means
/// the request is connection-state or introspection chatter (`OPEN`,
/// `STATS`, `METRICS`, ...) and stays out of the latency histograms.
fn verb_of(req: &Request) -> Option<Verb> {
    match req {
        Request::Fact(_) => Some(Verb::Fact),
        Request::Prepare { .. } => Some(Verb::Prepare),
        Request::Entail(_) => Some(Verb::Entail),
        Request::Countermodel(_) => Some(Verb::Countermodel),
        Request::Batch(_) => Some(Verb::Batch),
        Request::Flush => Some(Verb::Other),
        Request::Trace(inner) => verb_of(inner),
        _ => None,
    }
}

/// Renders the `EXPLAIN` body for a compiled plan: its strategy and the
/// route chosen against the pinned snapshot, then one line per disjunct
/// with its compiled shape, path count, variable census, and `!=`
/// expansion decision. Pure introspection — nothing here runs a search.
fn render_explain(name: &str, pq: &PreparedQuery, route: Route) -> String {
    let mut out = String::with_capacity(256);
    out.push_str(&format!("query {name}\n"));
    out.push_str(&format!("strategy {}\n", pq.strategy().as_str()));
    out.push_str(&format!("route {}\n", route.as_str()));
    out.push_str(&format!(
        "monadic {}\n",
        if pq.is_monadic() { "yes" } else { "no" }
    ));
    if let Some(cap) = pq.expansion_cap() {
        out.push_str(&format!("expansion_cap {cap}\n"));
    }
    let disjuncts = pq.explain_disjuncts();
    out.push_str(&format!("disjuncts {}\n", disjuncts.len()));
    for (i, d) in disjuncts.iter().enumerate() {
        out.push_str(&format!(
            "disjunct {i} route {} paths {} order_vars {} object_vars {} ne_atoms {} ne {}\n",
            d.route.as_str(),
            d.path_count,
            d.order_vars,
            d.object_vars,
            d.ne_atoms,
            d.ne_expansion.describe(),
        ));
    }
    out
}

/// True when the expression mentions any (object or order) constant.
fn mentions_constants(e: &QueryExpr) -> bool {
    let is_const = |t: &QTerm| !matches!(t, QTerm::Var(_));
    match e {
        QueryExpr::And(ps) | QueryExpr::Or(ps) => ps.iter().any(mentions_constants),
        QueryExpr::Exists(_, body) => mentions_constants(body),
        QueryExpr::Proper { args, .. } => args.iter().any(is_const),
        QueryExpr::Order { lhs, rhs, .. } => is_const(lhs) || is_const(rhs),
    }
}

/// Parses a query that must not mention constants (the `PREPARE` rule:
/// a registered query evaluates against an evolving database, so
/// constant guard facts cannot be pinned at compile time).
fn parse_constant_free(voc: &Vocabulary, text: &str) -> Result<DnfQuery, WireError> {
    let expr = parse_query_expr_in(voc, text).map_err(|e| WireError::from(&e))?;
    if mentions_constants(&expr) {
        return Err(WireError::proto(
            "PREPARE requires a constant-free query; constants are supported on inline ENTAIL",
        ));
    }
    expr.to_dnf(voc).map_err(|e| WireError::from(&e))
}

///// A running server: bound address plus shutdown plumbing. Dropping the
/// handle shuts the accept loop down (worker threads serving still-open
/// connections finish with their clients) and then gracefully drains
/// every database — commit queues emptied, WAL tails fsynced, mutator
/// threads joined — so a `shutdown()`/drop is a durability barrier.
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    registry: Arc<Registry>,
}

impl ServerHandle {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting connections, joins the accept thread, then
    /// drains and joins every database's mutator (acked writes are on
    /// disk when this returns). Idempotent.
    pub fn shutdown(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Wake the blocking accept with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        // New connections are refused; drain the databases. In-flight
        // client writes enqueued before this point are processed by the
        // drain loop ahead of the shutdown ack, so they are not lost.
        self.registry.shutdown_dbs();
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Tunables of the serving loop — thread count, connection cap, line
/// cap, socket timeouts, and the default per-request deadline.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Fixed worker pool size (each worker owns one connection at a
    /// time).
    pub threads: usize,
    /// Hard cap on accepted-and-not-yet-finished connections; beyond it
    /// the accept loop answers `ERR busy` directly on the socket and
    /// closes, instead of queueing without bound.
    pub max_conns: usize,
    /// Maximum request-line length in bytes; longer lines are answered
    /// with `ERR toolarge` and the connection is closed.
    pub max_line: usize,
    /// Socket read timeout — bounds how long a worker waits for the
    /// next request byte (a slow-loris client is disconnected, not
    /// parked on a pool slot forever). `None` = wait indefinitely.
    pub read_timeout: Option<Duration>,
    /// Socket write timeout — bounds how long a worker blocks on a
    /// client that stopped reading its replies.
    pub write_timeout: Option<Duration>,
    /// Default per-request deadline (`--request-timeout`); a request's
    /// own `DEADLINE <ms>` prefix overrides it.
    pub request_timeout: Option<Duration>,
    /// Slow-query threshold (`--slow-ms`): when set, every request is
    /// traced and ones over the threshold log their phase breakdown to
    /// stderr. `None` (the default) disables tracing entirely.
    pub slow_ms: Option<u64>,
}

impl ServeOptions {
    /// Defaults for a pool of `threads` workers: connection cap at
    /// `4 × threads`, 1 MiB line cap, a 30 s write timeout, no read
    /// timeout (idle interactive clients are legitimate), no default
    /// request deadline.
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        ServeOptions {
            threads,
            max_conns: threads * 4,
            max_line: 1 << 20,
            read_timeout: None,
            write_timeout: Some(Duration::from_secs(30)),
            request_timeout: None,
            slow_ms: None,
        }
    }
}

/// Binds `addr` and serves the registry's databases on a fixed pool of
/// `threads` worker threads with default [`ServeOptions`].
pub fn serve<A: ToSocketAddrs>(
    registry: Arc<Registry>,
    addr: A,
    threads: usize,
) -> std::io::Result<ServerHandle> {
    serve_with(registry, addr, ServeOptions::new(threads))
}

/// Binds `addr` and serves the registry's databases under explicit
/// [`ServeOptions`] (connection cap, line cap, timeouts, default
/// request deadline).
pub fn serve_with<A: ToSocketAddrs>(
    registry: Arc<Registry>,
    addr: A,
    opts: ServeOptions,
) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let shutdown = Arc::new(AtomicBool::new(false));
    let (tx, rx) = mpsc::channel::<TcpStream>();
    let rx = Arc::new(Mutex::new(rx));
    // Accepted-and-unfinished connections (queued + being served):
    // incremented by the accept loop before handoff, decremented by the
    // worker when the client is done.
    let active = Arc::new(AtomicU64::new(0));
    for _ in 0..opts.threads.max(1) {
        let rx = Arc::clone(&rx);
        let registry = Arc::clone(&registry);
        let active = Arc::clone(&active);
        let opts = opts.clone();
        thread::spawn(move || loop {
            let stream = {
                let guard = rx.lock().unwrap_or_else(|p| p.into_inner());
                guard.recv()
            };
            match stream {
                // A panic while serving one client (an engine bug, a
                // poisoned lock) must not shrink the fixed pool: catch
                // it, drop the connection, keep the worker.
                Ok(s) => {
                    let registry = &registry;
                    let opts = &opts;
                    let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
                        serve_client(s, registry, opts)
                    }));
                    active.fetch_sub(1, Ordering::SeqCst);
                }
                Err(_) => break, // accept loop gone
            }
        });
    }
    let flag = Arc::clone(&shutdown);
    let registry_handle = Arc::clone(&registry);
    let accept = {
        let registry = Arc::clone(&registry);
        let active = Arc::clone(&active);
        let max_conns = opts.max_conns.max(1);
        thread::spawn(move || {
            for stream in listener.incoming() {
                if flag.load(Ordering::SeqCst) {
                    break;
                }
                match stream {
                    Ok(mut s) => {
                        if active.load(Ordering::SeqCst) >= max_conns as u64 {
                            // At the cap: answer `ERR busy` on the spot
                            // and close — an immediate typed rejection
                            // beats an unbounded silent queue.
                            registry.note_conn_rejected();
                            let err = Response::Error(WireError::kinded(
                                ErrorKind::Busy,
                                format!("connection limit reached ({max_conns}); retry later"),
                            ));
                            let _ = s.set_write_timeout(Some(Duration::from_millis(250)));
                            let _ = s.write_all(err.render().as_bytes());
                            continue; // drop = close
                        }
                        active.fetch_add(1, Ordering::SeqCst);
                        if tx.send(s).is_err() {
                            break;
                        }
                    }
                    // Transient accept failures (ECONNABORTED from a
                    // client resetting while queued, EMFILE during a
                    // burst) must not kill the listener — skip and keep
                    // accepting.
                    Err(_) => continue,
                }
            }
        })
    };
    Ok(ServerHandle {
        addr,
        shutdown,
        accept: Some(accept),
        registry: registry_handle,
    })
}

/// Outcome of one capped line read.
enum LineRead {
    /// A complete line (without the terminator) is in the buffer.
    Line,
    /// Clean EOF before any byte of a new line.
    Eof,
    /// The line exceeded the cap; the connection should be told and
    /// closed (the rest of the oversized line is never read).
    TooLarge,
}

/// Reads one `\n`-terminated line into `buf`, refusing to buffer more
/// than `cap` bytes — the bounded replacement for `BufRead::lines()`,
/// which would happily grow a line as large as a client cares to send.
fn read_line_capped(
    reader: &mut impl BufRead,
    buf: &mut Vec<u8>,
    cap: usize,
) -> std::io::Result<LineRead> {
    loop {
        let available = match reader.fill_buf() {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if available.is_empty() {
            return Ok(if buf.is_empty() {
                LineRead::Eof
            } else {
                LineRead::Line // unterminated final line
            });
        }
        match available.iter().position(|&b| b == b'\n') {
            Some(pos) => {
                buf.extend_from_slice(&available[..pos]);
                reader.consume(pos + 1);
                if buf.len() > cap {
                    return Ok(LineRead::TooLarge);
                }
                if buf.last() == Some(&b'\r') {
                    buf.pop();
                }
                return Ok(LineRead::Line);
            }
            None => {
                let n = available.len();
                buf.extend_from_slice(available);
                reader.consume(n);
                if buf.len() > cap {
                    return Ok(LineRead::TooLarge);
                }
            }
        }
    }
}

/// Serves one client: a request line in, a framed response out, until
/// `CLOSE`, EOF, an oversized line, or a socket timeout.
fn serve_client(stream: TcpStream, registry: &Arc<Registry>, opts: &ServeOptions) {
    let _ = stream.set_read_timeout(opts.read_timeout);
    let _ = stream.set_write_timeout(opts.write_timeout);
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    let mut conn = Conn::new(Arc::clone(registry))
        .with_request_timeout(opts.request_timeout)
        .with_slow_ms(opts.slow_ms);
    let mut buf = Vec::new();
    loop {
        buf.clear();
        match read_line_capped(&mut reader, &mut buf, opts.max_line) {
            Ok(LineRead::Eof) => break,
            Ok(LineRead::Line) => {}
            Ok(LineRead::TooLarge) => {
                let err = Response::Error(WireError::kinded(
                    ErrorKind::TooLarge,
                    format!(
                        "request line exceeds the {}-byte limit; closing",
                        opts.max_line
                    ),
                ));
                let _ = writer.write_all(err.render().as_bytes());
                let _ = writer.flush();
                break;
            }
            // Socket errors, including read timeouts (WouldBlock /
            // TimedOut from a slow-loris client): close — a parked
            // worker is a parked pool slot.
            Err(_) => break,
        }
        let line = String::from_utf8_lossy(&buf);
        if line.trim().is_empty() || line.trim_start().starts_with('#') {
            continue;
        }
        let resp = conn.handle_line(&line);
        let done = matches!(resp, Response::Bye);
        if writer.write_all(resp.render().as_bytes()).is_err() || writer.flush().is_err() {
            break;
        }
        if done {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::ErrorKind;
    use std::time::Duration;

    fn conn() -> Conn {
        Conn::new(Arc::new(Registry::new()))
    }

    #[test]
    fn open_write_prepare_entail_round() {
        let mut c = conn();
        assert!(matches!(
            c.handle_line("ENTAIL exists t. P(t)"),
            Response::Error(WireError {
                kind: ErrorKind::Registry,
                ..
            })
        ));
        assert!(matches!(c.handle_line("OPEN lab"), Response::Ok(_)));
        assert!(matches!(
            c.handle_line("FACT pred Heat(ord); pred Cool(ord); Heat(t1); Cool(t2); t1 < t2;"),
            Response::Ok(_)
        ));
        assert!(matches!(
            c.handle_line("PREPARE cooled: exists a b. Heat(a) & a < b & Cool(b)"),
            Response::Ok(_)
        ));
        assert_eq!(c.handle_line("ENTAIL cooled"), Response::Verdict(true));
        assert_eq!(
            c.handle_line("ENTAIL exists a b. Cool(a) & a < b & Heat(b)"),
            Response::Verdict(false)
        );
        // The same db is visible from a second connection via USE.
        let mut c2 = Conn::new(Arc::clone(&c.registry));
        assert!(matches!(c2.handle_line("USE lab"), Response::Ok(_)));
        assert_eq!(c2.handle_line("ENTAIL cooled"), Response::Verdict(true));
        assert!(matches!(
            c2.handle_line("USE nope"),
            Response::Error(WireError {
                kind: ErrorKind::Registry,
                ..
            })
        ));
        assert_eq!(c.handle_line("CLOSE"), Response::Bye);
    }

    #[test]
    fn inconsistent_fragment_is_rejected_and_rolled_back() {
        // A write that would close a `<`-cycle must not poison the
        // shared database (there is no DELETE): the fragment is
        // rejected with the typed inconsistency error and the previous
        // state keeps serving.
        let mut c = conn();
        c.handle_line("OPEN lab");
        assert!(matches!(
            c.handle_line("FACT pred P(ord); P(u); P(v); u < v;"),
            Response::Ok(_)
        ));
        // An in-place write before the poisoning attempt, so the test
        // can check the rollback preserves the lifetime counters.
        assert!(matches!(c.handle_line("ASSERT u <= v;"), Response::Ok(_)));
        let (patches_before, drops_before) = match c.handle_line("STATS") {
            Response::Stats(s) => (s.in_place_patches, s.cache_drops),
            other => panic!("expected stats, got {other:?}"),
        };
        assert!(patches_before >= 1);
        let resp = c.handle_line("FACT v < u;");
        assert!(
            matches!(
                &resp,
                Response::Error(WireError {
                    kind: ErrorKind::Inconsistent,
                    ..
                })
            ),
            "{resp:?}"
        );
        // The database still answers, with the poisoning edge absent.
        assert_eq!(
            c.handle_line("ENTAIL exists s t. P(s) & s < t & P(t)"),
            Response::Verdict(true)
        );
        let Response::Stats(s) = c.handle_line("STATS") else {
            panic!("expected stats");
        };
        assert_eq!(s.atoms, 4, "rolled-back edge must not be stored");
        assert_eq!(
            s.in_place_patches, patches_before,
            "rollback must not reset lifetime counters: {s:?}"
        );
        assert_eq!(
            s.cache_drops, drops_before,
            "a rolled-back fragment contributes no counter churn: {s:?}"
        );
        // A multi-atom fragment that ends inconsistent rolls back whole.
        let resp = c.handle_line("FACT P(w); v < w; w < u;");
        assert!(matches!(resp, Response::Error(_)), "{resp:?}");
        let Response::Stats(s) = c.handle_line("STATS") else {
            panic!("expected stats");
        };
        assert_eq!(s.atoms, 4, "no partial fragment may survive");
        assert_eq!(
            c.handle_line("ENTAIL exists t. P(t)"),
            Response::Verdict(true)
        );
    }

    #[test]
    fn unsatisfiable_ne_fragment_is_rejected_and_rolled_back() {
        // A `!=` over an N1-merged pair (or `u != u` outright) leaves
        // the database with zero models — every query would be
        // vacuously CERTAIN forever. The write must be rejected like a
        // `<`-cycle, not acknowledged.
        let mut c = conn();
        c.handle_line("OPEN lab");
        assert!(matches!(
            c.handle_line("FACT pred P(ord); pred Q(ord); P(u); Q(v); u <= v; v <= u;"),
            Response::Ok(_)
        ));
        let resp = c.handle_line("ASSERT u != v;");
        assert!(
            matches!(
                &resp,
                Response::Error(WireError {
                    kind: ErrorKind::Inconsistent,
                    ..
                })
            ),
            "{resp:?}"
        );
        let resp = c.handle_line("ASSERT u != u;");
        assert!(matches!(resp, Response::Error(_)), "{resp:?}");
        // The database still has models: an unsupported query must stay
        // NOT-CERTAIN, not turn vacuously certain.
        assert_eq!(
            c.handle_line("ENTAIL exists s t. P(s) & s < t & Q(t)"),
            Response::Verdict(false)
        );
        let Response::Stats(s) = c.handle_line("STATS") else {
            panic!("expected stats");
        };
        assert_eq!(s.atoms, 4, "rejected != atoms must not be stored");
        // A satisfiable != over distinct vertices still lands.
        assert!(matches!(
            c.handle_line("FACT P(w); w < u;"),
            Response::Ok(_)
        ));
        assert!(matches!(c.handle_line("ASSERT w != v;"), Response::Ok(_)));
    }

    #[test]
    fn failed_fact_leaves_no_vocabulary_residue() {
        // A fragment that declares a (wrong) signature and then fails to
        // parse must not pin that signature: the corrected retry has to
        // succeed (regression test for write-path vocabulary pollution).
        let mut c = conn();
        c.handle_line("OPEN lab");
        let resp = c.handle_line("FACT pred P(ord, ord); P(u) Q(v);");
        assert!(matches!(resp, Response::Error(_)), "{resp:?}");
        assert!(
            matches!(c.handle_line("FACT pred P(ord); P(u);"), Response::Ok(_)),
            "retry with the corrected declaration must not conflict"
        );
        assert_eq!(
            c.handle_line("ENTAIL exists t. P(t)"),
            Response::Verdict(true)
        );
    }

    #[test]
    fn parse_error_spans_are_line_relative() {
        let mut c = conn();
        c.handle_line("OPEN lab");
        let resp = c.handle_line("FACT P(u) @");
        let Response::Error(e) = resp else {
            panic!("expected error, got {resp:?}");
        };
        assert_eq!(e.kind, ErrorKind::Parse);
        // `@` sits at byte 10 of the request line.
        assert_eq!(e.span, Some(indord_core::error::Span::point(10)));
    }

    #[test]
    fn countermodel_and_batch_and_stats() {
        let mut c = conn();
        c.handle_line("OPEN lab");
        c.handle_line("FACT pred P(ord); pred Q(ord); P(u); Q(v);");
        c.handle_line("PREPARE pq: exists s t. P(s) & s < t & Q(t)");
        c.handle_line("PREPARE any: exists s. P(s)");
        // Not entailed (unordered db): a countermodel word comes back.
        let resp = c.handle_line("COUNTERMODEL pq");
        assert!(matches!(resp, Response::Countermodel(_)), "{resp:?}");
        // Entailed target answers CERTAIN.
        assert_eq!(c.handle_line("COUNTERMODEL any"), Response::Verdict(true));
        let resp = c.handle_line("BATCH pq any");
        assert_eq!(
            resp,
            Response::Verdicts(vec![("pq".into(), false), ("any".into(), true)])
        );
        let Response::Stats(s) = c.handle_line("STATS") else {
            panic!("expected stats");
        };
        assert_eq!(s.queries, 4);
        assert_eq!(s.prepared_hits, 4);
        assert_eq!(s.prepared, 2);
        assert!(s.writes >= 2);
        // An acyclic edge over known constants patches in place.
        c.handle_line("ASSERT u < v;");
        let Response::Stats(s) = c.handle_line("STATS") else {
            panic!("expected stats");
        };
        assert!(s.in_place_patches >= 1, "{s:?}");
        assert_eq!(s.scaffold_rebuilds, 0, "{s:?}");
        assert_eq!(c.handle_line("ENTAIL pq"), Response::Verdict(true));
    }

    #[test]
    fn inline_entail_supports_constants_prepare_rejects_them() {
        let mut c = conn();
        c.handle_line("OPEN lab");
        c.handle_line("FACT pred P(ord); P(u); P(v); u < v;");
        // `u` is a database constant: inline works, PREPARE refuses.
        assert_eq!(
            c.handle_line("ENTAIL exists t. P(t) & u < t"),
            Response::Verdict(true)
        );
        assert_eq!(
            c.handle_line("ENTAIL exists t. P(t) & t < u"),
            Response::Verdict(false)
        );
        // COUNTERMODEL on a constant-carrying inline query renders the
        // witness under the request-local vocabulary (the guard
        // predicates of constant elimination do not exist in the shared
        // one — regression test for an out-of-bounds panic that killed
        // the serving worker).
        match c.handle_line("COUNTERMODEL exists t. P(t) & t < u") {
            Response::Countermodel(body) => assert!(!body.trim().is_empty()),
            other => panic!("expected a countermodel, got {other:?}"),
        }
        assert_eq!(
            c.handle_line("COUNTERMODEL exists t. P(t) & u < t"),
            Response::Verdict(true)
        );
        let resp = c.handle_line("PREPARE bad: exists t. P(t) & u < t");
        assert!(
            matches!(
                &resp,
                Response::Error(WireError {
                    kind: ErrorKind::Proto,
                    ..
                })
            ),
            "{resp:?}"
        );
        // The inline constant path must not have mutated the shared db.
        let Response::Stats(s) = c.handle_line("STATS") else {
            panic!("expected stats");
        };
        assert_eq!(s.atoms, 3);
    }

    #[test]
    fn held_snapshot_never_blocks_writers_and_stays_immutable() {
        let mut c = conn();
        c.handle_line("OPEN lab");
        c.handle_line("FACT pred P(ord); P(u); P(v); u < v;");
        let db = c.registry.get("lab").unwrap();
        // Pin the current snapshot — the deterministic stand-in for a
        // long COUNTERMODEL enumeration holding its read state.
        let pinned = db.read_snapshot().expect("mvcc mode");
        let atoms_before = pinned.session().len();
        let seq_before = pinned.seq();
        // Writes land while the snapshot is held: there is no reader
        // lock for them to wait on.
        assert!(matches!(c.handle_line("ASSERT u <= v;"), Response::Ok(_)));
        assert!(matches!(
            c.handle_line("FACT P(w); w < u;"),
            Response::Ok(_)
        ));
        let fresh = db.read_snapshot().unwrap();
        assert!(fresh.seq() > seq_before, "commits advanced the sequence");
        assert_eq!(
            pinned.session().len(),
            atoms_before,
            "a pinned snapshot is immutable"
        );
        assert!(fresh.session().len() > atoms_before);
        // The pinned snapshot still evaluates, against its own world.
        let expr = parse_query_expr_in(pinned.vocabulary(), "exists t. P(t)").unwrap();
        let q = expr.to_dnf(pinned.vocabulary()).unwrap();
        let eng = Engine::new(pinned.vocabulary());
        let pq = eng.prepare(&q).unwrap();
        assert!(eng.entails_prepared(pinned.session(), &pq).unwrap().holds());
    }

    #[test]
    fn queued_writes_coalesce_into_one_group_commit() {
        let mut c = conn();
        c.handle_line("OPEN lab");
        c.handle_line("FACT pred P(ord); P(u); P(v); u < v;");
        let db = c.registry.get("lab").unwrap();
        // Occupy the mutator with a stall; writes submitted meanwhile
        // queue up behind it and must drain as one group.
        let stall = {
            let db = Arc::clone(&db);
            thread::spawn(move || db.submit(WriteOp::Stall(Duration::from_millis(150))))
        };
        thread::sleep(Duration::from_millis(30)); // let the stall dequeue
        let writers: Vec<_> = ["u <= v;", "u != v;", "P(w); w < u;"]
            .into_iter()
            .map(|f| {
                let db = Arc::clone(&db);
                thread::spawn(move || db.submit(WriteOp::Fragment(f.to_string())))
            })
            .collect();
        for w in writers {
            let resp = w.join().unwrap();
            assert!(matches!(resp, Ok(Response::Ok(_))), "{resp:?}");
        }
        assert!(matches!(stall.join().unwrap(), Ok(Response::Ok(_))));
        let Response::Stats(s) = c.handle_line("STATS") else {
            panic!("expected stats");
        };
        // Seed FACT + stall + the coalesced burst.
        assert!(s.max_group >= 2, "burst must coalesce: {s:?}");
        assert!(s.group_commits >= 2, "{s:?}");
        assert!(s.group_fragments >= 5, "{s:?}");
        // Classification: the two known-vertex order writes are
        // patchable, the seed FACT and the fresh-constant fragment are
        // structural.
        assert_eq!(s.patchable_writes, 2, "{s:?}");
        assert_eq!(s.structural_writes, 2, "{s:?}");
        assert_eq!(s.commit_queue_depth, 0, "queue drains to empty: {s:?}");
        assert!(s.queue_depth_p99 >= 1, "{s:?}");
        assert!(s.snapshots_published >= 2, "{s:?}");
    }

    #[test]
    fn writes_are_visible_to_later_requests_on_any_connection() {
        // Read-your-own-writes: the OK reply is sent only after the
        // publish, so a later request — here from a *different*
        // connection — always sees the write.
        let mut c = conn();
        c.handle_line("OPEN lab");
        c.handle_line("FACT pred P(ord); P(u);");
        let mut c2 = Conn::new(Arc::clone(&c.registry));
        c2.handle_line("USE lab");
        for i in 0..20 {
            assert!(matches!(
                c.handle_line(&format!("FACT P(x{i});")),
                Response::Ok(_)
            ));
            let Response::Stats(s) = c2.handle_line("STATS") else {
                panic!("expected stats");
            };
            assert_eq!(s.atoms, 2 + i, "write {i} must be visible after its OK");
        }
    }
}
