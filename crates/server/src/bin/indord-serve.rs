//! `indord-serve` — serve indefinite-order databases over TCP.
//!
//! ```text
//! indord-serve [--addr 127.0.0.1:7431] [--threads 4] [--open <db>]...
//!              [--data-dir <path>] [--fsync always|group|os] [--snapshot-every N]
//!              [--max-queue N] [--max-conns N] [--max-line BYTES]
//!              [--request-timeout MS] [--slow-ms MS]
//! ```
//!
//! Overload protection: `--max-queue` bounds each database's commit
//! queue (excess writes get a retryable `ERR overloaded`),
//! `--max-conns` caps concurrent connections (`ERR busy` beyond it),
//! `--max-line` caps the request line (`ERR toolarge`), and
//! `--request-timeout` applies a default deadline to every request
//! (`ERR deadline`; a request's own `DEADLINE <ms>` prefix overrides).
//!
//! Observability: `--slow-ms` traces every request and logs the full
//! phase breakdown of ones over the threshold to stderr; clients can
//! introspect plans with `EXPLAIN`, individual requests with `TRACE`,
//! and scrape latency histograms with `METRICS` (Prometheus text).
//!
//! Clients speak the line protocol of `indord_server::protocol`; try
//! the `indord` REPL: `indord --connect 127.0.0.1:7431`.
//!
//! With `--data-dir`, every database is durable: acknowledged writes
//! are appended to a checksummed write-ahead log (synced per `--fsync`),
//! snapshots are taken every `--snapshot-every` records, and a restart
//! recovers each database — newest valid snapshot plus WAL replay —
//! and comes back *warm* (scaffold built, prepared queries recompiled
//! and pre-run).

use indord_server::durable::StorageConfig;
use indord_server::runtime::{serve_with, Registry, ServeOptions, DEFAULT_MAX_QUEUE};
use indord_storage::FsyncPolicy;
use std::sync::Arc;
use std::time::Duration;

fn main() {
    let mut addr = "127.0.0.1:7431".to_string();
    let mut threads = 4usize;
    let mut opens: Vec<String> = Vec::new();
    let mut data_dir: Option<String> = None;
    let mut fsync = FsyncPolicy::Group;
    let mut snapshot_every = 256u64;
    let mut max_queue = DEFAULT_MAX_QUEUE;
    let mut max_conns: Option<usize> = None;
    let mut max_line: Option<usize> = None;
    let mut request_timeout: Option<Duration> = None;
    let mut slow_ms: Option<u64> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => addr = args.next().unwrap_or_else(|| usage("--addr needs a value")),
            "--threads" => {
                threads = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--threads needs a number"))
            }
            "--open" => {
                opens.push(args.next().unwrap_or_else(|| usage("--open needs a name")));
            }
            "--data-dir" => {
                data_dir = Some(
                    args.next()
                        .unwrap_or_else(|| usage("--data-dir needs a path")),
                )
            }
            "--fsync" => {
                let v = args
                    .next()
                    .unwrap_or_else(|| usage("--fsync needs a value"));
                fsync = FsyncPolicy::parse(&v)
                    .unwrap_or_else(|| usage("--fsync takes always, group, or os"));
            }
            "--snapshot-every" => {
                snapshot_every = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| usage("--snapshot-every needs a positive number"))
            }
            "--max-queue" => {
                max_queue = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--max-queue needs a number"))
            }
            "--max-conns" => {
                max_conns = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .filter(|&n: &usize| n > 0)
                        .unwrap_or_else(|| usage("--max-conns needs a positive number")),
                )
            }
            "--max-line" => {
                max_line = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .filter(|&n: &usize| n > 0)
                        .unwrap_or_else(|| usage("--max-line needs a positive byte count")),
                )
            }
            "--request-timeout" => {
                request_timeout = Some(Duration::from_millis(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .filter(|&n: &u64| n > 0)
                        .unwrap_or_else(|| usage("--request-timeout needs positive milliseconds")),
                ))
            }
            "--slow-ms" => {
                slow_ms = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage("--slow-ms needs milliseconds")),
                )
            }
            "--help" | "-h" => usage(""),
            other => usage(&format!("unknown flag `{other}`")),
        }
    }
    let registry = match &data_dir {
        None => Arc::new(Registry::new().with_max_queue(max_queue)),
        Some(root) => {
            let cfg = StorageConfig {
                root: root.into(),
                fsync,
                snapshot_every,
            };
            match Registry::with_storage_and_queue(cfg, max_queue) {
                Ok(r) => Arc::new(r),
                Err(e) => {
                    eprintln!("indord-serve: cannot recover data dir {root}: {e}");
                    std::process::exit(1);
                }
            }
        }
    };
    // Recovered databases boot warm; report what came back before the
    // port opens.
    for name in registry.names() {
        if let Some(db) = registry.get(&name) {
            let s = db.stats();
            println!(
                "indord-serve: recovered `{name}`: snapshot + {} wal record(s) replayed",
                s.recovery_replayed_fragments()
            );
        }
    }
    for name in &opens {
        registry.open(name);
    }
    let mut opts = ServeOptions::new(threads);
    if let Some(n) = max_conns {
        opts.max_conns = n;
    }
    if let Some(n) = max_line {
        opts.max_line = n;
    }
    opts.request_timeout = request_timeout;
    opts.slow_ms = slow_ms;
    let handle = match serve_with(Arc::clone(&registry), addr.as_str(), opts) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("indord-serve: cannot bind {addr}: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "indord-serve listening on {} ({threads} worker threads{}{})",
        handle.addr(),
        match &data_dir {
            Some(root) => format!(", durable at {root} (fsync={})", fsync.as_str()),
            None => String::new(),
        },
        if registry.names().is_empty() {
            String::new()
        } else {
            format!(", databases: {}", registry.names().join(", "))
        }
    );
    // Serve until killed.
    loop {
        std::thread::park();
    }
}

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("indord-serve: {err}");
    }
    eprintln!(
        "usage: indord-serve [--addr HOST:PORT] [--threads N] [--open DB]... \
         [--data-dir PATH] [--fsync always|group|os] [--snapshot-every N] \
         [--max-queue N] [--max-conns N] [--max-line BYTES] [--request-timeout MS] \
         [--slow-ms MS]"
    );
    std::process::exit(if err.is_empty() { 0 } else { 2 });
}
