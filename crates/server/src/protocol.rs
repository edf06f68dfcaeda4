//! The `indord` wire protocol: line-oriented, typed on both sides, and
//! round-trippable — every [`Request`] and [`Response`] renders to text
//! that parses back to an equal value, errors included.
//!
//! ## Requests (one line each)
//!
//! ```text
//! OPEN <db>                        create-or-select a named database
//! USE <db>                         select an existing database
//! FACT <fragment>                  insert `;`-separated facts (parser syntax)
//! ASSERT <fragment>                alias of FACT (reads well for order atoms)
//! PREPARE <name>: <query>          compile into the per-database registry
//! ENTAIL <name>                    evaluate a prepared query
//! ENTAIL <query>                   parse-and-evaluate inline
//! COUNTERMODEL <name-or-query>     like ENTAIL, but return a witness
//! BATCH <name> <name> ...          evaluate several prepared queries
//! EXPLAIN <name-or-query>          render the compiled plan without executing
//! TRACE <request>                  execute with a per-phase breakdown
//! STATS                            per-database counters and latency
//! METRICS                          Prometheus text exposition of the histograms
//! HEALTH                           per-database health: ok|degraded|recovering
//! FLUSH                            force a snapshot + WAL compaction (durable dbs)
//! CLOSE                            end the connection
//! ```
//!
//! A bare identifier after `ENTAIL`/`COUNTERMODEL` names a prepared
//! query; anything else is inline query text (real queries always
//! contain `.`, `(`, or an order relation, so the forms cannot collide).
//!
//! Any request may carry a `DEADLINE <ms>` prefix (for example
//! `DEADLINE 10 COUNTERMODEL q0`): the server abandons the request with
//! `ERR deadline` once the budget expires instead of occupying a worker.
//! The prefix is framing, not part of the [`Request`] value — servers
//! parse it off with [`Request::parse_with_deadline`].
//!
//! ## Overload & degraded-mode errors
//!
//! The serving layer sheds load with typed, machine-readable errors
//! (see [`ErrorKind`]): `overloaded` (bounded commit queue full —
//! retryable with backoff), `busy` (connection cap reached — retry
//! against another replica or later), `deadline` (request budget
//! expired — the verdict is unknown; for writes the fragment may still
//! commit), `toolarge` (request line over the server's cap — the
//! connection closes), `readonly` (the database degraded to read-only
//! serving after a storage fault — writes will fail until an operator
//! restarts it), and `shutdown` (the write was queued but the server
//! stopped before logging it — it did NOT commit). Only `overloaded`
//! is unconditionally safe to retry verbatim.
//!
//! ## Responses
//!
//! Single-line: `OK <message>`, `CERTAIN`, `NOT-CERTAIN`,
//! `VERDICTS <name>=CERTAIN ...`, `STATS <key>=<value> ...`, `BYE`, and
//! `ERR <kind> <span|-> <message>` — the error form carries the
//! [`CoreError`] kind and, for parse errors, the byte span of the
//! offending token *within the request line*, so a client can point at
//! it ([`indord_core::parse::caret_snippet`]). Multi-line responses are
//! framed as `<HEADER>` … `END` blocks, all with the same shape:
//!
//! ```text
//! COUNTERMODEL          EXPLAIN            TRACE              METRICS
//! <rendered model>      <plan lines>       <phase lines>      <exposition lines>
//! END                   END                END                END
//! ```
//!
//! ## Consistency contract (snapshot isolation)
//!
//! Reads (`ENTAIL`, `COUNTERMODEL`, `BATCH`, `STATS`) evaluate against
//! an immutable snapshot of the selected database, pinned once at the
//! start of the request; writes (`FACT`/`ASSERT`, `PREPARE`) are
//! group-committed by a per-database mutator thread and become visible
//! by an atomic snapshot swap. Consequences a client can rely on:
//!
//! - **Read-your-own-writes.** A write's `OK` reply is sent only after
//!   the snapshot containing it has been published, so any *later*
//!   request on any connection observes it.
//! - **`BATCH` is atomic-read.** All names in one `BATCH` are evaluated
//!   against the *same* snapshot, taken once when the request is
//!   served. A write racing with the batch — even one acknowledged
//!   between two of its entries from another connection — is either
//!   visible to every verdict in the reply or to none; there are no
//!   torn multi-query reads. The flip side: a batch never sees writes
//!   committed after its snapshot was pinned, however long the batch
//!   runs.
//! - **Writers never wait for readers.** A slow `COUNTERMODEL`
//!   enumeration holds only its own snapshot, not a lock; concurrent
//!   `FACT`s commit and acknowledge while it runs.

use indord_core::error::{CoreError, Span};
use std::fmt;
use std::io::{self, BufRead};

/// True when `s` is a bare identifier (the prepared-query name form).
pub fn is_ident(s: &str) -> bool {
    !s.is_empty()
        && s.chars()
            .all(|c| c.is_alphanumeric() || c == '_' || c == '$')
}

/// The evaluation target of `ENTAIL`/`COUNTERMODEL`: a prepared-query
/// name or inline query text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Target {
    /// A name registered by `PREPARE`.
    Prepared(String),
    /// Inline query text, parsed per request.
    Inline(String),
}

impl Target {
    fn parse(rest: &str) -> Target {
        if is_ident(rest) {
            Target::Prepared(rest.to_string())
        } else {
            Target::Inline(rest.to_string())
        }
    }
}

impl fmt::Display for Target {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Target::Prepared(n) => write!(f, "{n}"),
            Target::Inline(q) => write!(f, "{q}"),
        }
    }
}

/// A parsed client request. See the module docs for the grammar.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// `OPEN <db>`: create-or-select a named database.
    Open(String),
    /// `USE <db>`: select an existing database.
    Use(String),
    /// `FACT <fragment>` / `ASSERT <fragment>`: insert facts.
    Fact(String),
    /// `PREPARE <name>: <query>`: compile into the registry.
    Prepare {
        /// Registry name.
        name: String,
        /// Query text.
        query: String,
    },
    /// `ENTAIL <name-or-query>`.
    Entail(Target),
    /// `COUNTERMODEL <name-or-query>`.
    Countermodel(Target),
    /// `BATCH <name> ...`.
    Batch(Vec<String>),
    /// `EXPLAIN <name-or-query>`: render the compiled plan — object
    /// splits, per-disjunct route, `!=` expansion, caps — without
    /// executing anything.
    Explain(Target),
    /// `TRACE <request>`: execute the inner request and return the
    /// per-phase timing breakdown plus engine counters. Not nestable.
    Trace(Box<Request>),
    /// `STATS`.
    Stats,
    /// `METRICS`: the latency/route histograms in Prometheus text
    /// exposition format.
    Metrics,
    /// `HEALTH`: the selected database's serving state.
    Health,
    /// `FLUSH`: force a snapshot and WAL compaction now (errors on a
    /// database without durable storage).
    Flush,
    /// `CLOSE`.
    Close,
}

impl Request {
    /// Parses a request line. On success also returns the byte offset of
    /// the payload (fragment / query text) within `line`, so spans in
    /// downstream parse errors can be shifted into line coordinates.
    pub fn parse_with_offset(line: &str) -> Result<(Request, usize), WireError> {
        // Offsets are computed against the original line (spans must
        // point into what the client sent), so track the leading
        // whitespace explicitly instead of slicing it away.
        let full = line.trim_end();
        let lead = full.len() - full.trim_start().len();
        let line = &full[lead..];
        let bad = |m: &str| WireError {
            kind: ErrorKind::Proto,
            span: None,
            message: m.to_string(),
        };
        let (word, rest) = match line.find(char::is_whitespace) {
            Some(i) => (&line[..i], line[i..].trim_start()),
            None => (line, ""),
        };
        let payload = lead + (line.len() - rest.len());
        let need = |cond: bool, m: &str| if cond { Ok(()) } else { Err(bad(m)) };
        match word {
            "OPEN" => {
                need(is_ident(rest), "OPEN takes one database name")?;
                Ok((Request::Open(rest.to_string()), payload))
            }
            "USE" => {
                need(is_ident(rest), "USE takes one database name")?;
                Ok((Request::Use(rest.to_string()), payload))
            }
            "FACT" | "ASSERT" => {
                need(!rest.is_empty(), "FACT takes a `;`-separated fragment")?;
                Ok((Request::Fact(rest.to_string()), payload))
            }
            "PREPARE" => {
                let colon = rest
                    .find(':')
                    .ok_or_else(|| bad("PREPARE syntax: PREPARE <name>: <query>"))?;
                let name = rest[..colon].trim();
                let query = rest[colon + 1..].trim_start();
                need(is_ident(name), "PREPARE needs an identifier name")?;
                need(!query.is_empty(), "PREPARE needs a query after `:`")?;
                let qoff = payload + colon + 1 + (rest[colon + 1..].len() - query.len());
                Ok((
                    Request::Prepare {
                        name: name.to_string(),
                        query: query.to_string(),
                    },
                    qoff,
                ))
            }
            "ENTAIL" => {
                need(!rest.is_empty(), "ENTAIL takes a prepared name or a query")?;
                Ok((Request::Entail(Target::parse(rest)), payload))
            }
            "COUNTERMODEL" => {
                need(
                    !rest.is_empty(),
                    "COUNTERMODEL takes a prepared name or a query",
                )?;
                Ok((Request::Countermodel(Target::parse(rest)), payload))
            }
            "BATCH" => {
                let names: Vec<String> = rest.split_whitespace().map(str::to_string).collect();
                need(
                    !names.is_empty() && names.iter().all(|n| is_ident(n)),
                    "BATCH takes one or more prepared names",
                )?;
                Ok((Request::Batch(names), payload))
            }
            "EXPLAIN" => {
                need(!rest.is_empty(), "EXPLAIN takes a prepared name or a query")?;
                Ok((Request::Explain(Target::parse(rest)), payload))
            }
            "TRACE" => {
                need(!rest.is_empty(), "TRACE takes a request to execute")?;
                let (inner, off) = Request::parse_with_offset(rest)?;
                if matches!(inner, Request::Trace(_)) {
                    return Err(bad("TRACE does not nest"));
                }
                Ok((Request::Trace(Box::new(inner)), payload + off))
            }
            "STATS" => {
                need(rest.is_empty(), "STATS takes no arguments")?;
                Ok((Request::Stats, payload))
            }
            "METRICS" => {
                need(rest.is_empty(), "METRICS takes no arguments")?;
                Ok((Request::Metrics, payload))
            }
            "HEALTH" => {
                need(rest.is_empty(), "HEALTH takes no arguments")?;
                Ok((Request::Health, payload))
            }
            "FLUSH" => {
                need(rest.is_empty(), "FLUSH takes no arguments")?;
                Ok((Request::Flush, payload))
            }
            "CLOSE" => {
                need(rest.is_empty(), "CLOSE takes no arguments")?;
                Ok((Request::Close, payload))
            }
            _ => Err(bad(&format!(
                "unknown command `{word}` (try OPEN/USE/FACT/PREPARE/ENTAIL/COUNTERMODEL/BATCH/EXPLAIN/TRACE/STATS/METRICS/HEALTH/FLUSH/CLOSE)"
            ))),
        }
    }

    /// Parses a request line (offset discarded).
    pub fn parse(line: &str) -> Result<Request, WireError> {
        Self::parse_with_offset(line).map(|(r, _)| r)
    }

    /// [`Request::parse_with_offset`] plus the optional `DEADLINE <ms>`
    /// framing prefix. The returned payload offset stays in coordinates
    /// of the *original* line (prefix included), so downstream parse
    /// errors still point at what the client sent.
    pub fn parse_with_deadline(
        line: &str,
    ) -> Result<(Request, usize, Option<std::time::Duration>), WireError> {
        let trimmed = line.trim_start();
        let lead = line.len() - trimmed.len();
        if let Some(rest) = trimmed.strip_prefix("DEADLINE") {
            // Require whitespace after the keyword so e.g. a future
            // `DEADLINES` verb would not be swallowed here.
            if rest.starts_with(char::is_whitespace) {
                let rest = rest.trim_start();
                let (ms_tok, cmd) = match rest.find(char::is_whitespace) {
                    Some(i) => (&rest[..i], rest[i..].trim_start()),
                    None => (rest, ""),
                };
                let ms: u64 = ms_tok.parse().map_err(|_| WireError {
                    kind: ErrorKind::Proto,
                    span: None,
                    message: "DEADLINE takes a millisecond budget: DEADLINE <ms> <request>"
                        .to_string(),
                })?;
                if cmd.is_empty() {
                    return Err(WireError::proto(
                        "DEADLINE needs a request after the budget: DEADLINE <ms> <request>",
                    ));
                }
                let cmd_off = lead + (trimmed.len() - cmd.len());
                let (req, off) = Request::parse_with_offset(cmd)?;
                return Ok((
                    req,
                    cmd_off + off,
                    Some(std::time::Duration::from_millis(ms)),
                ));
            }
        }
        let (req, off) = Request::parse_with_offset(line)?;
        Ok((req, off, None))
    }
}

impl fmt::Display for Request {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Request::Open(n) => write!(f, "OPEN {n}"),
            Request::Use(n) => write!(f, "USE {n}"),
            Request::Fact(t) => write!(f, "FACT {t}"),
            Request::Prepare { name, query } => write!(f, "PREPARE {name}: {query}"),
            Request::Entail(t) => write!(f, "ENTAIL {t}"),
            Request::Countermodel(t) => write!(f, "COUNTERMODEL {t}"),
            Request::Batch(names) => write!(f, "BATCH {}", names.join(" ")),
            Request::Explain(t) => write!(f, "EXPLAIN {t}"),
            Request::Trace(inner) => write!(f, "TRACE {inner}"),
            Request::Stats => write!(f, "STATS"),
            Request::Metrics => write!(f, "METRICS"),
            Request::Health => write!(f, "HEALTH"),
            Request::Flush => write!(f, "FLUSH"),
            Request::Close => write!(f, "CLOSE"),
        }
    }
}

/// The kind tag of a wire error — a flattened [`CoreError`] taxonomy
/// plus protocol/registry kinds of the serving layer itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// Malformed request or query/fragment text.
    Parse,
    /// Predicate arity mismatch.
    Arity,
    /// Predicate argument sort mismatch.
    Sort,
    /// Conflicting predicate declarations.
    Signature,
    /// Inconsistent order constraints.
    Inconsistent,
    /// Unbound query variable.
    Unbound,
    /// Operation requires monadic predicates.
    Monadic,
    /// Operation requires a sequential query.
    Sequential,
    /// Enumeration cap exceeded.
    Cap,
    /// Session/vocabulary mismatch.
    Vocabulary,
    /// Protocol misuse (bad command syntax, missing selection).
    Proto,
    /// Registry errors (unknown database, unknown prepared name).
    Registry,
    /// Bounded commit queue full — retryable with backoff.
    Overloaded,
    /// Request deadline expired before the answer was found.
    Deadline,
    /// Connection cap reached; the server refused the connection.
    Busy,
    /// Request line exceeded the server's length cap.
    TooLarge,
    /// Database is serving read-only after a storage fault.
    ReadOnly,
    /// Server shutting down; the write was rejected before logging.
    Shutdown,
}

impl ErrorKind {
    /// The wire token of the kind.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorKind::Parse => "parse",
            ErrorKind::Arity => "arity",
            ErrorKind::Sort => "sort",
            ErrorKind::Signature => "signature",
            ErrorKind::Inconsistent => "inconsistent",
            ErrorKind::Unbound => "unbound",
            ErrorKind::Monadic => "monadic",
            ErrorKind::Sequential => "sequential",
            ErrorKind::Cap => "cap",
            ErrorKind::Vocabulary => "vocabulary",
            ErrorKind::Proto => "proto",
            ErrorKind::Registry => "registry",
            ErrorKind::Overloaded => "overloaded",
            ErrorKind::Deadline => "deadline",
            ErrorKind::Busy => "busy",
            ErrorKind::TooLarge => "toolarge",
            ErrorKind::ReadOnly => "readonly",
            ErrorKind::Shutdown => "shutdown",
        }
    }

    /// Inverse of [`ErrorKind::as_str`].
    pub fn from_token(s: &str) -> Option<ErrorKind> {
        Some(match s {
            "parse" => ErrorKind::Parse,
            "arity" => ErrorKind::Arity,
            "sort" => ErrorKind::Sort,
            "signature" => ErrorKind::Signature,
            "inconsistent" => ErrorKind::Inconsistent,
            "unbound" => ErrorKind::Unbound,
            "monadic" => ErrorKind::Monadic,
            "sequential" => ErrorKind::Sequential,
            "cap" => ErrorKind::Cap,
            "vocabulary" => ErrorKind::Vocabulary,
            "proto" => ErrorKind::Proto,
            "registry" => ErrorKind::Registry,
            "overloaded" => ErrorKind::Overloaded,
            "deadline" => ErrorKind::Deadline,
            "busy" => ErrorKind::Busy,
            "toolarge" => ErrorKind::TooLarge,
            "readonly" => ErrorKind::ReadOnly,
            "shutdown" => ErrorKind::Shutdown,
            _ => return None,
        })
    }

    /// True when a client may retry the *same* request verbatim and
    /// expect it to eventually succeed (the REPL's backoff loop keys
    /// off this). `busy` is deliberately excluded: it is raised before
    /// a connection exists, so the retry belongs at the connect layer.
    pub fn is_retryable(self) -> bool {
        matches!(self, ErrorKind::Overloaded)
    }
}

/// A typed error crossing the wire: kind, optional source span (line
/// coordinates), and message. Renders as `ERR <kind> <span|-> <message>`
/// and parses back to an equal value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// What class of failure.
    pub kind: ErrorKind,
    /// Byte span of the offending token within the request line, when
    /// the failure was a parse error with position information.
    pub span: Option<Span>,
    /// Human-readable description (single line).
    pub message: String,
}

impl WireError {
    /// A protocol-kind error with no span.
    pub fn proto(message: impl Into<String>) -> WireError {
        WireError {
            kind: ErrorKind::Proto,
            span: None,
            message: message.into(),
        }
    }

    /// A registry-kind error (unknown database / prepared name).
    pub fn registry(message: impl Into<String>) -> WireError {
        WireError {
            kind: ErrorKind::Registry,
            span: None,
            message: message.into(),
        }
    }

    /// An arbitrary-kind error with no span (the overload/supervision
    /// paths raise `overloaded`/`deadline`/`readonly`/`shutdown`/…
    /// without a source position).
    pub fn kinded(kind: ErrorKind, message: impl Into<String>) -> WireError {
        WireError {
            kind,
            span: None,
            message: message.into(),
        }
    }

    /// Shifts the span (if any) right by `offset` bytes — from
    /// payload-relative into request-line coordinates.
    pub fn shift_span(mut self, offset: usize) -> WireError {
        if let Some(s) = self.span.as_mut() {
            s.start += offset;
            s.end += offset;
        }
        self
    }
}

impl From<&CoreError> for WireError {
    fn from(e: &CoreError) -> WireError {
        let kind = match e {
            CoreError::Parse { .. } => ErrorKind::Parse,
            CoreError::ArityMismatch { .. } => ErrorKind::Arity,
            CoreError::SortMismatch { .. } => ErrorKind::Sort,
            CoreError::SignatureConflict { .. } => ErrorKind::Signature,
            CoreError::InconsistentOrder { .. } => ErrorKind::Inconsistent,
            CoreError::UnboundVariable { .. } => ErrorKind::Unbound,
            CoreError::NotMonadic { .. } => ErrorKind::Monadic,
            CoreError::NotSequential => ErrorKind::Sequential,
            CoreError::CapExceeded { .. } => ErrorKind::Cap,
            CoreError::VocabularyMismatch => ErrorKind::Vocabulary,
            CoreError::DeadlineExceeded => ErrorKind::Deadline,
        };
        // A spanned parse error's Display embeds its (payload-relative)
        // byte position; the wire span — shifted into request-line
        // coordinates — supersedes it, so carry the bare message.
        let message = match e {
            CoreError::Parse { message, .. } if e.span().is_some() => message.clone(),
            _ => e.to_string(),
        };
        WireError {
            kind,
            span: e.span(),
            message,
        }
    }
}

impl From<CoreError> for WireError {
    fn from(e: CoreError) -> WireError {
        WireError::from(&e)
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ERR {} ", self.kind.as_str())?;
        match self.span {
            Some(s) => write!(f, "{s} ")?,
            None => write!(f, "- ")?,
        }
        // The message must stay on one line for the framing to hold.
        write!(f, "{}", self.message.replace('\n', "; "))
    }
}

/// A database's serving state, carried by the `HEALTH` reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum HealthState {
    /// Serving reads and writes normally.
    #[default]
    Ok,
    /// Read-only: a storage fault (or exhausted restart budget) stopped
    /// the write path; reads serve the last published snapshot.
    Degraded,
    /// The supervisor is restarting the mutator; writes briefly fail.
    Recovering,
}

impl HealthState {
    /// The wire token of the state.
    pub fn as_str(self) -> &'static str {
        match self {
            HealthState::Ok => "ok",
            HealthState::Degraded => "degraded",
            HealthState::Recovering => "recovering",
        }
    }

    /// Inverse of [`HealthState::as_str`].
    pub fn from_token(s: &str) -> Option<HealthState> {
        Some(match s {
            "ok" => HealthState::Ok,
            "degraded" => HealthState::Degraded,
            "recovering" => HealthState::Recovering,
            _ => return None,
        })
    }
}

/// Per-database counters carried by the `STATS` reply. Renders as a
/// single `key=value` line and parses back field-for-field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StatsReply {
    /// Atoms in the database (`|D|`).
    pub atoms: u64,
    /// Session mutation epoch.
    pub epoch: u64,
    /// Prepared queries registered.
    pub prepared: u64,
    /// Entail-class requests served (ENTAIL/COUNTERMODEL/BATCH entries).
    pub queries: u64,
    /// Requests answered from the prepared-query registry.
    pub prepared_hits: u64,
    /// Write requests applied (FACT/ASSERT atoms).
    pub writes: u64,
    /// Scaffold built-from-scratch count (1 = warm, never rebuilt).
    pub scaffold_builds: u64,
    /// Scaffold rebuilds beyond the first build (0 = every write was
    /// absorbed in place).
    pub scaffold_rebuilds: u64,
    /// Writes absorbed by in-place cache patching.
    pub in_place_patches: u64,
    /// Writes that dropped the session caches.
    pub cache_drops: u64,
    /// Pairs evicted from the scaffold memo table.
    pub pair_evictions: u64,
    /// Concurrent searches that fell back to a private pair table.
    pub contention_fallbacks: u64,
    /// Median request latency, nanoseconds (entail-class requests).
    pub p50_ns: u64,
    /// 99th-percentile request latency, nanoseconds.
    pub p99_ns: u64,
    /// Write jobs currently queued for the database's mutator thread
    /// (usually 0 at rest).
    pub commit_queue_depth: u64,
    /// 99th-percentile commit-queue depth observed at enqueue time.
    pub queue_depth_p99: u64,
    /// Group commits executed (mutator drain cycles).
    pub group_commits: u64,
    /// Write jobs processed across all group commits; divided by
    /// `group_commits` this is the mean coalescing factor.
    pub group_fragments: u64,
    /// Largest single group commit.
    pub max_group: u64,
    /// Snapshots published (one per group commit that changed state).
    pub snapshots_published: u64,
    /// Applied write fragments classified patchable (label / acyclic
    /// edge / known-vertex `!=`) and sorted ahead in their group.
    pub patchable_writes: u64,
    /// Applied write fragments classified structural (fresh constants,
    /// n-ary facts) and sorted behind the patchable ones.
    pub structural_writes: u64,
    /// Age of the snapshot that answered this `STATS`, nanoseconds
    /// since it was published.
    pub snapshot_age_ns: u64,
    /// WAL records appended (0 for an in-memory database; all wal_*,
    /// fsync, snapshot-file, and recovery counters below likewise).
    pub wal_appends: u64,
    /// WAL bytes appended (headers + payloads).
    pub wal_bytes: u64,
    /// fsyncs issued by the WAL (policy-dependent: ~1 per record under
    /// `always`, ~1 per group commit under `group`, 0 under `os`).
    pub fsyncs: u64,
    /// Snapshot files written (cadence + FLUSH).
    pub snapshots_written: u64,
    /// WAL compactions completed after a snapshot.
    pub compactions: u64,
    /// WAL records replayed during boot recovery.
    pub recovery_replayed_fragments: u64,
    /// Torn-tail bytes truncated during boot recovery.
    pub recovery_truncated_bytes: u64,
    /// Writes rejected with `ERR overloaded` (bounded queue full).
    pub writes_shed: u64,
    /// Requests abandoned with `ERR deadline`.
    pub deadline_aborts: u64,
    /// Connections refused with `ERR busy` at the accept loop
    /// (server-wide: every database reports the same number).
    pub conns_rejected: u64,
    /// Mutator restarts the supervisor performed after panic escapes.
    pub mutator_restarts: u64,
    /// Transitions into read-only degraded mode.
    pub degraded_entries: u64,
}

impl StatsReply {
    const FIELDS: [&'static str; 35] = [
        "atoms",
        "epoch",
        "prepared",
        "queries",
        "prepared_hits",
        "writes",
        "scaffold_builds",
        "scaffold_rebuilds",
        "in_place_patches",
        "cache_drops",
        "pair_evictions",
        "contention_fallbacks",
        "p50_ns",
        "p99_ns",
        "commit_queue_depth",
        "queue_depth_p99",
        "group_commits",
        "group_fragments",
        "max_group",
        "snapshots_published",
        "patchable_writes",
        "structural_writes",
        "snapshot_age_ns",
        "wal_appends",
        "wal_bytes",
        "fsyncs",
        "snapshots_written",
        "compactions",
        "recovery_replayed_fragments",
        "recovery_truncated_bytes",
        "writes_shed",
        "deadline_aborts",
        "conns_rejected",
        "mutator_restarts",
        "degraded_entries",
    ];

    fn get(&self, field: &str) -> u64 {
        match field {
            "atoms" => self.atoms,
            "epoch" => self.epoch,
            "prepared" => self.prepared,
            "queries" => self.queries,
            "prepared_hits" => self.prepared_hits,
            "writes" => self.writes,
            "scaffold_builds" => self.scaffold_builds,
            "scaffold_rebuilds" => self.scaffold_rebuilds,
            "in_place_patches" => self.in_place_patches,
            "cache_drops" => self.cache_drops,
            "pair_evictions" => self.pair_evictions,
            "contention_fallbacks" => self.contention_fallbacks,
            "p50_ns" => self.p50_ns,
            "p99_ns" => self.p99_ns,
            "commit_queue_depth" => self.commit_queue_depth,
            "queue_depth_p99" => self.queue_depth_p99,
            "group_commits" => self.group_commits,
            "group_fragments" => self.group_fragments,
            "max_group" => self.max_group,
            "snapshots_published" => self.snapshots_published,
            "patchable_writes" => self.patchable_writes,
            "structural_writes" => self.structural_writes,
            "snapshot_age_ns" => self.snapshot_age_ns,
            "wal_appends" => self.wal_appends,
            "wal_bytes" => self.wal_bytes,
            "fsyncs" => self.fsyncs,
            "snapshots_written" => self.snapshots_written,
            "compactions" => self.compactions,
            "recovery_replayed_fragments" => self.recovery_replayed_fragments,
            "recovery_truncated_bytes" => self.recovery_truncated_bytes,
            "writes_shed" => self.writes_shed,
            "deadline_aborts" => self.deadline_aborts,
            "conns_rejected" => self.conns_rejected,
            "mutator_restarts" => self.mutator_restarts,
            "degraded_entries" => self.degraded_entries,
            _ => unreachable!("unknown stats field"),
        }
    }

    fn set(&mut self, field: &str, v: u64) -> bool {
        match field {
            "atoms" => self.atoms = v,
            "epoch" => self.epoch = v,
            "prepared" => self.prepared = v,
            "queries" => self.queries = v,
            "prepared_hits" => self.prepared_hits = v,
            "writes" => self.writes = v,
            "scaffold_builds" => self.scaffold_builds = v,
            "scaffold_rebuilds" => self.scaffold_rebuilds = v,
            "in_place_patches" => self.in_place_patches = v,
            "cache_drops" => self.cache_drops = v,
            "pair_evictions" => self.pair_evictions = v,
            "contention_fallbacks" => self.contention_fallbacks = v,
            "p50_ns" => self.p50_ns = v,
            "p99_ns" => self.p99_ns = v,
            "commit_queue_depth" => self.commit_queue_depth = v,
            "queue_depth_p99" => self.queue_depth_p99 = v,
            "group_commits" => self.group_commits = v,
            "group_fragments" => self.group_fragments = v,
            "max_group" => self.max_group = v,
            "snapshots_published" => self.snapshots_published = v,
            "patchable_writes" => self.patchable_writes = v,
            "structural_writes" => self.structural_writes = v,
            "snapshot_age_ns" => self.snapshot_age_ns = v,
            "wal_appends" => self.wal_appends = v,
            "wal_bytes" => self.wal_bytes = v,
            "fsyncs" => self.fsyncs = v,
            "snapshots_written" => self.snapshots_written = v,
            "compactions" => self.compactions = v,
            "recovery_replayed_fragments" => self.recovery_replayed_fragments = v,
            "recovery_truncated_bytes" => self.recovery_truncated_bytes = v,
            "writes_shed" => self.writes_shed = v,
            "deadline_aborts" => self.deadline_aborts = v,
            "conns_rejected" => self.conns_rejected = v,
            "mutator_restarts" => self.mutator_restarts = v,
            "degraded_entries" => self.degraded_entries = v,
            _ => return false,
        }
        true
    }
}

/// A server response. See the module docs for the framing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// `OK <message>`: a successful non-query request.
    Ok(String),
    /// `CERTAIN` / `NOT-CERTAIN`.
    Verdict(bool),
    /// `VERDICTS <name>=CERTAIN ...`: one entry per BATCH element.
    Verdicts(Vec<(String, bool)>),
    /// `COUNTERMODEL ... END`: the rendered witness (an entailed
    /// COUNTERMODEL request answers `CERTAIN` instead).
    Countermodel(String),
    /// `EXPLAIN ... END`: the rendered plan of an `EXPLAIN` request.
    Explain(String),
    /// `TRACE ... END`: the phase/counter breakdown of a `TRACE`d
    /// request.
    Trace(String),
    /// `METRICS ... END`: Prometheus text exposition.
    Metrics(String),
    /// `STATS key=value ...`. Boxed: the counter block dwarfs every
    /// other variant, and responses move through reply channels by
    /// value.
    Stats(Box<StatsReply>),
    /// `HEALTH <state> <detail|->`: the selected database's serving
    /// state, with a one-line reason when not `ok`.
    Health {
        /// Serving state.
        state: HealthState,
        /// Why (empty when `ok`).
        detail: String,
    },
    /// `BYE`: connection closing.
    Bye,
    /// `ERR <kind> <span|-> <message>`.
    Error(WireError),
}

impl Response {
    /// Renders the response, newline-terminated, ready for the wire.
    pub fn render(&self) -> String {
        match self {
            Response::Ok(m) => format!("OK {}\n", m.replace('\n', "; ")),
            Response::Verdict(true) => "CERTAIN\n".to_string(),
            Response::Verdict(false) => "NOT-CERTAIN\n".to_string(),
            Response::Verdicts(vs) => {
                let mut out = String::from("VERDICTS");
                for (name, holds) in vs {
                    out.push(' ');
                    out.push_str(name);
                    out.push('=');
                    out.push_str(if *holds { "CERTAIN" } else { "NOT-CERTAIN" });
                }
                out.push('\n');
                out
            }
            Response::Countermodel(body) => {
                let body = body.trim_end_matches('\n');
                format!("COUNTERMODEL\n{body}\nEND\n")
            }
            Response::Explain(body) => {
                let body = body.trim_end_matches('\n');
                format!("EXPLAIN\n{body}\nEND\n")
            }
            Response::Trace(body) => {
                let body = body.trim_end_matches('\n');
                format!("TRACE\n{body}\nEND\n")
            }
            Response::Metrics(body) => {
                let body = body.trim_end_matches('\n');
                format!("METRICS\n{body}\nEND\n")
            }
            Response::Stats(s) => {
                let mut out = String::from("STATS");
                for f in StatsReply::FIELDS {
                    out.push(' ');
                    out.push_str(f);
                    out.push('=');
                    out.push_str(&s.get(f).to_string());
                }
                out.push('\n');
                out
            }
            Response::Health { state, detail } => {
                if detail.is_empty() {
                    format!("HEALTH {} -\n", state.as_str())
                } else {
                    format!("HEALTH {} {}\n", state.as_str(), detail.replace('\n', "; "))
                }
            }
            Response::Bye => "BYE\n".to_string(),
            Response::Error(e) => format!("{e}\n"),
        }
    }

    /// Reads one framed response off `r` (one line, or a
    /// `COUNTERMODEL`…`END` block). `Ok(None)` on clean EOF.
    pub fn read_from<R: BufRead>(r: &mut R) -> io::Result<Option<Response>> {
        let mut line = String::new();
        if r.read_line(&mut line)? == 0 {
            return Ok(None);
        }
        let first = line.trim_end_matches(['\n', '\r']).to_string();
        let block = |header: &str| -> Option<fn(String) -> Response> {
            match header {
                "COUNTERMODEL" => Some(Response::Countermodel),
                "EXPLAIN" => Some(Response::Explain),
                "TRACE" => Some(Response::Trace),
                "METRICS" => Some(Response::Metrics),
                _ => None,
            }
        };
        if let Some(wrap) = block(&first) {
            let mut body = String::new();
            loop {
                let mut next = String::new();
                if r.read_line(&mut next)? == 0 {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        format!("unterminated {first} block"),
                    ));
                }
                let trimmed = next.trim_end_matches(['\n', '\r']);
                if trimmed == "END" {
                    break;
                }
                body.push_str(trimmed);
                body.push('\n');
            }
            return Ok(Some(wrap(body)));
        }
        Self::parse_line(&first).map(Some).ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidData, format!("bad reply: {first}"))
        })
    }

    /// Parses a single-line response (everything but countermodels).
    pub fn parse_line(line: &str) -> Option<Response> {
        let line = line.trim_end();
        if line == "CERTAIN" {
            return Some(Response::Verdict(true));
        }
        if line == "NOT-CERTAIN" {
            return Some(Response::Verdict(false));
        }
        if line == "BYE" {
            return Some(Response::Bye);
        }
        if let Some(m) = line.strip_prefix("OK") {
            return Some(Response::Ok(m.strip_prefix(' ').unwrap_or(m).to_string()));
        }
        if let Some(rest) = line.strip_prefix("VERDICTS") {
            let mut vs = Vec::new();
            for part in rest.split_whitespace() {
                let (name, v) = part.split_once('=')?;
                let holds = match v {
                    "CERTAIN" => true,
                    "NOT-CERTAIN" => false,
                    _ => return None,
                };
                vs.push((name.to_string(), holds));
            }
            return Some(Response::Verdicts(vs));
        }
        if let Some(rest) = line.strip_prefix("STATS") {
            let mut s = StatsReply::default();
            for part in rest.split_whitespace() {
                let (k, v) = part.split_once('=')?;
                if !s.set(k, v.parse().ok()?) {
                    return None;
                }
            }
            return Some(Response::Stats(Box::new(s)));
        }
        if let Some(rest) = line.strip_prefix("HEALTH ") {
            let (state_tok, detail) = match rest.split_once(' ') {
                Some((s, d)) => (s, d),
                None => (rest, "-"),
            };
            let state = HealthState::from_token(state_tok)?;
            let detail = if detail == "-" {
                String::new()
            } else {
                detail.to_string()
            };
            return Some(Response::Health { state, detail });
        }
        if let Some(rest) = line.strip_prefix("ERR ") {
            let (kind_tok, rest) = rest.split_once(' ')?;
            let kind = ErrorKind::from_token(kind_tok)?;
            let (span_tok, message) = match rest.split_once(' ') {
                Some((s, m)) => (s, m.to_string()),
                None => (rest, String::new()),
            };
            let span = if span_tok == "-" {
                None
            } else {
                let (a, b) = span_tok.split_once("..")?;
                Some(Span::new(a.parse().ok()?, b.parse().ok()?))
            };
            return Some(Response::Error(WireError {
                kind,
                span,
                message,
            }));
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip() {
        let cases = [
            Request::Open("lab".into()),
            Request::Use("lab".into()),
            Request::Fact("P(u); u < v;".into()),
            Request::Prepare {
                name: "cooled".into(),
                query: "exists a b. Heat(a) & a < b & Cool(b)".into(),
            },
            Request::Entail(Target::Prepared("cooled".into())),
            Request::Entail(Target::Inline("exists t. P(t)".into())),
            Request::Countermodel(Target::Prepared("cooled".into())),
            Request::Batch(vec!["a".into(), "b".into()]),
            Request::Explain(Target::Prepared("cooled".into())),
            Request::Explain(Target::Inline("exists t. P(t)".into())),
            Request::Trace(Box::new(Request::Entail(Target::Prepared("cooled".into())))),
            Request::Trace(Box::new(Request::Fact("P(u);".into()))),
            Request::Metrics,
            Request::Stats,
            Request::Health,
            Request::Flush,
            Request::Close,
        ];
        for r in cases {
            let line = r.to_string();
            assert_eq!(Request::parse(&line).unwrap(), r, "{line}");
        }
        // ASSERT is an alias of FACT.
        assert_eq!(
            Request::parse("ASSERT u < v;").unwrap(),
            Request::Fact("u < v;".into())
        );
    }

    #[test]
    fn request_payload_offsets_index_into_the_line() {
        let line = "FACT P(u); u < v;";
        let (req, off) = Request::parse_with_offset(line).unwrap();
        assert_eq!(req, Request::Fact("P(u); u < v;".into()));
        assert_eq!(&line[off..], "P(u); u < v;");
        let line = "PREPARE cooled:  exists t. P(t)";
        let (_, off) = Request::parse_with_offset(line).unwrap();
        assert_eq!(&line[off..], "exists t. P(t)");
    }

    #[test]
    fn leading_whitespace_is_tolerated_and_offsets_stay_line_relative() {
        assert_eq!(Request::parse("  STATS").unwrap(), Request::Stats);
        let line = "   FACT P(u);";
        let (req, off) = Request::parse_with_offset(line).unwrap();
        assert_eq!(req, Request::Fact("P(u);".into()));
        assert_eq!(&line[off..], "P(u);");
    }

    #[test]
    fn malformed_requests_are_typed_errors() {
        for line in [
            "",
            "NOPE",
            "OPEN two words",
            "USE",
            "PREPARE missing colon",
            "PREPARE : q",
            "BATCH",
            "STATS now",
            "FACT",
            "EXPLAIN",
            "TRACE",
            "TRACE TRACE STATS",
            "METRICS now",
        ] {
            let e = Request::parse(line).unwrap_err();
            assert_eq!(e.kind, ErrorKind::Proto, "{line}");
        }
    }

    #[test]
    fn responses_round_trip() {
        let cases = [
            Response::Ok("opened lab (12 atoms)".into()),
            Response::Verdict(true),
            Response::Verdict(false),
            Response::Verdicts(vec![("a".into(), true), ("b".into(), false)]),
            Response::Countermodel("points 0..2\n  u \u{21a6} 0\n  P(pt0)\n".into()),
            Response::Explain(
                "query cooled\nroute seq\ndisjuncts 1\nstate_cap 4096\n".into(),
            ),
            Response::Trace(
                "request ENTAIL cooled\nroute seq\noutcome CERTAIN\ntotal_ns 1234\nphase parse 10\nphase search 900\n".into(),
            ),
            Response::Metrics(
                "# TYPE indord_request_duration_ns histogram\nindord_request_duration_ns_count{db=\"lab\",verb=\"entail\",status=\"ok\"} 3\n".into(),
            ),
            Response::Stats(Box::new(StatsReply {
                atoms: 42,
                epoch: 7,
                prepared: 3,
                queries: 100,
                prepared_hits: 90,
                writes: 5,
                scaffold_builds: 1,
                scaffold_rebuilds: 0,
                in_place_patches: 5,
                cache_drops: 0,
                pair_evictions: 2,
                contention_fallbacks: 1,
                p50_ns: 8_000,
                p99_ns: 44_000,
                commit_queue_depth: 0,
                queue_depth_p99: 3,
                group_commits: 4,
                group_fragments: 9,
                max_group: 4,
                snapshots_published: 4,
                patchable_writes: 7,
                structural_writes: 2,
                snapshot_age_ns: 1_234,
                wal_appends: 9,
                wal_bytes: 412,
                fsyncs: 4,
                snapshots_written: 1,
                compactions: 1,
                recovery_replayed_fragments: 6,
                recovery_truncated_bytes: 17,
                writes_shed: 11,
                deadline_aborts: 2,
                conns_rejected: 3,
                mutator_restarts: 1,
                degraded_entries: 1,
            })),
            Response::Health {
                state: HealthState::Ok,
                detail: String::new(),
            },
            Response::Health {
                state: HealthState::Degraded,
                detail: "wal io is dead after injected fault".into(),
            },
            Response::Bye,
            Response::Error(WireError {
                kind: ErrorKind::Overloaded,
                span: None,
                message: "commit queue full (depth 8/8); retry with backoff".into(),
            }),
            Response::Error(WireError {
                kind: ErrorKind::Parse,
                span: Some(Span::new(8, 11)),
                message: "unknown predicate `Zap`".into(),
            }),
            Response::Error(WireError::registry("no database selected")),
        ];
        for resp in cases {
            let rendered = resp.render();
            let mut r = io::BufReader::new(rendered.as_bytes());
            let back = Response::read_from(&mut r).unwrap().unwrap();
            assert_eq!(back, resp, "{rendered}");
        }
    }

    #[test]
    fn deadline_prefix_parses_and_offsets_stay_line_relative() {
        let line = "DEADLINE 10 COUNTERMODEL exists t. P(t)";
        let (req, off, d) = Request::parse_with_deadline(line).unwrap();
        assert_eq!(
            req,
            Request::Countermodel(Target::Inline("exists t. P(t)".into()))
        );
        assert_eq!(&line[off..], "exists t. P(t)");
        assert_eq!(d, Some(std::time::Duration::from_millis(10)));
        // No prefix: plain parse, no deadline.
        let (req, _, d) = Request::parse_with_deadline("STATS").unwrap();
        assert_eq!(req, Request::Stats);
        assert_eq!(d, None);
        // Malformed budgets are typed proto errors.
        for line in ["DEADLINE", "DEADLINE x STATS", "DEADLINE 10"] {
            let e = Request::parse_with_deadline(line).unwrap_err();
            assert_eq!(e.kind, ErrorKind::Proto, "{line}");
        }
    }

    #[test]
    fn core_errors_map_to_kinds_with_spans() {
        let mut voc = indord_core::sym::Vocabulary::new();
        let e = indord_core::parse::parse_database(&mut voc, "P(u) @").unwrap_err();
        let w = WireError::from(&e);
        assert_eq!(w.kind, ErrorKind::Parse);
        assert_eq!(w.span, Some(Span::point(5)));
        // Shifting moves into line coordinates: "FACT P(u) @".
        let shifted = w.shift_span(5);
        assert_eq!(shifted.span, Some(Span::point(10)));
        let w: WireError = CoreError::NotSequential.into();
        assert_eq!(w.kind, ErrorKind::Sequential);
        assert_eq!(w.span, None);
    }

    #[test]
    fn multiline_messages_are_flattened() {
        let e = Response::Error(WireError::proto("a\nb"));
        let rendered = e.render();
        assert_eq!(rendered.lines().count(), 1);
        let mut r = io::BufReader::new(rendered.as_bytes());
        let back = Response::read_from(&mut r).unwrap().unwrap();
        assert_eq!(back, Response::Error(WireError::proto("a; b")));
    }
}
