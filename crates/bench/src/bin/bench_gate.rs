//! Bench-regression gate for CI.
//!
//! Compares a fresh bench JSON dump (a smoke run with `BENCH_JSON` set)
//! against the committed baseline and fails — exit code 1 — when a
//! gated measurement regressed by more than the allowed ratio.
//!
//! ```sh
//! BENCH_JSON=target/bench_gate.json cargo bench -p indord-bench --bench prepared -- --smoke
//! cargo run -p indord-bench --bin bench_gate -- target/bench_gate.json crates/bench/BENCH_prepared.json
//! ```
//!
//! Only the *sequential* serving leg is gated: the single-core CI
//! runner makes the storm/burst legs measure the scheduler's
//! timeslicing rather than the code under test. The MVCC write mean
//! under a held read is the commit path's own cost (patch + freeze +
//! publish, never blocked), so it is stable enough to gate even from a
//! smoke run's short sample.

use std::process::ExitCode;

/// `(id, allowed current/baseline ratio)` — a gated entry fails the run
/// when `current > ratio * baseline`. The serving-trace legs are both
/// sequential (see `report_trace_overhead`), so they are stable enough
/// to gate: `disabled` guards the untraced hot path against recorder
/// cost leaking in, `enabled` guards the recorder itself.
const GATED: &[(&str, f64)] = &[
    ("prepared/serving-mvcc/write-mean-under-long-read/mvcc", 2.0),
    ("prepared/serving-trace/read-mean/disabled", 2.0),
    ("prepared/serving-trace/read-mean/enabled", 2.0),
];

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let (Some(current_path), Some(baseline_path)) = (args.next(), args.next()) else {
        eprintln!("usage: bench_gate <current.json> <baseline.json>");
        return ExitCode::from(2);
    };
    let current = match read_results(&current_path) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("bench_gate: {current_path}: {e}");
            return ExitCode::from(2);
        }
    };
    let baseline = match read_results(&baseline_path) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("bench_gate: {baseline_path}: {e}");
            return ExitCode::from(2);
        }
    };

    let mut failed = false;
    for &(id, max_ratio) in GATED {
        let Some(&cur) = current.iter().find(|(k, _)| k == id).map(|(_, v)| v) else {
            eprintln!(
                "bench_gate: {id} missing from {current_path} — gate ran on the wrong bench?"
            );
            failed = true;
            continue;
        };
        let Some(&base) = baseline.iter().find(|(k, _)| k == id).map(|(_, v)| v) else {
            eprintln!("bench_gate: {id} missing from baseline {baseline_path}");
            failed = true;
            continue;
        };
        let ratio = cur / base.max(1e-12);
        let verdict = if ratio > max_ratio { "REGRESSED" } else { "ok" };
        println!(
            "bench_gate: {id}: current {cur:.0} ns vs baseline {base:.0} ns ({ratio:.2}x, limit {max_ratio:.1}x) — {verdict}"
        );
        failed |= ratio > max_ratio;
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn read_results(path: &str) -> Result<Vec<(String, f64)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    Ok(parse_results(&text))
}

/// Extracts `(id, ns_per_iter)` pairs from the shim's dump format: one
/// `{"id": "...", "ns_per_iter": N}` object per line. Line-oriented on
/// purpose — the dump is machine-written, and a hand-rolled scanner
/// keeps this binary dependency-free.
fn parse_results(text: &str) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    for line in text.lines() {
        let Some(rest) = line.trim().strip_prefix("{\"id\": \"") else {
            continue;
        };
        let Some((id, rest)) = rest.split_once("\", \"ns_per_iter\": ") else {
            continue;
        };
        let value = rest.trim_end_matches(['}', ',', ' ']);
        if let Ok(v) = value.parse::<f64>() {
            out.push((id.to_string(), v));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::parse_results;

    #[test]
    fn parses_the_shim_dump_format() {
        let dump = "{\n  \"bench\": \"prepared\",\n  \"results\": [\n    {\"id\": \"a/b\", \"ns_per_iter\": 12.5},\n    {\"id\": \"c/d\", \"ns_per_iter\": 3.0}\n  ]\n}\n";
        assert_eq!(
            parse_results(dump),
            vec![("a/b".to_string(), 12.5), ("c/d".to_string(), 3.0)]
        );
    }

    #[test]
    fn ignores_malformed_lines() {
        assert!(parse_results("{\"id\": \"x\"}\nnot json\n").is_empty());
    }
}
