//! `indord-tcpbench`: a closed-loop, one-connection TCP benchmark of
//! `indord-serve`.
//!
//! ```text
//! indord-tcpbench --server <indord-serve> --workload <name> --seed <n>
//!                 --seconds <s> --trace <0|1>
//! ```
//!
//! Prints one JSON object as the last line of stdout: `correct`,
//! `attempted`, `failed`, and the end-to-end metrics (`--trace 0`) or
//! the per-layer metrics (`--trace 1`). See `README.md`.

mod check;
mod gen;
mod layers;
mod model;
mod run;
mod server;

use std::path::PathBuf;
use std::time::Instant;

pub struct Args {
    pub server: PathBuf,
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// When the process started; `setup_s` is timed from here.
    pub started: Instant,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        server: PathBuf::new(),
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
        started: Instant::now(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let v = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {v}"))
        };
        match flag.as_str() {
            "--server" => a.server = v.into(),
            "--workload" => a.workload = v,
            "--seed" => a.seed = num(&v)?,
            "--seconds" => a.seconds = num(&v)?,
            "--trace" => a.trace = num(&v)? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if a.server.as_os_str().is_empty() || a.workload.is_empty() {
        return Err("usage: indord-tcpbench --server <path> --workload <name> \
                    [--seed N] [--seconds S] [--trace 0|1]"
            .into());
    }
    Ok(a)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("indord-tcpbench: {e}");
            std::process::exit(2);
        }
    };
    match run::run(&args) {
        Ok(report) => {
            println!("{}", report.json());
            if !report.correct {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("indord-tcpbench: {e}");
            std::process::exit(1);
        }
    }
}
