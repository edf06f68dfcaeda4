//! The server under test as a child process, and the one TCP
//! connection the closed-loop client drives it with.

use indord_server::protocol::Response;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// A running `indord-serve`.
pub struct Server {
    child: Child,
    // Held so the server never sees a closed stdout.
    _stdout: BufReader<ChildStdout>,
    pub addr: String,
}

impl Server {
    /// Starts `bin` on an ephemeral port, durable under `data_dir` with
    /// the default (`group`) fsync policy, and waits until it listens
    /// (recovery, if any, runs before that).
    pub fn start(bin: &Path, data_dir: &Path) -> Result<Server, String> {
        let mut child = Command::new(bin)
            .args(["--addr", "127.0.0.1:0", "--data-dir"])
            .arg(data_dir)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        loop {
            line.clear();
            if stdout.read_line(&mut line).map_err(|e| e.to_string())? == 0 {
                let _ = child.kill();
                let _ = child.wait();
                return Err("indord-serve exited before listening".into());
            }
            if let Some(rest) = line.strip_prefix("indord-serve listening on ") {
                let addr = rest
                    .split_whitespace()
                    .next()
                    .unwrap_or_default()
                    .to_string();
                return Ok(Server {
                    child,
                    _stdout: stdout,
                    addr,
                });
            }
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// `kill -9`, then reap.
    pub fn kill(mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }

    /// CPU time, minor faults and peak RSS from `/proc/<pid>`.
    pub fn proc_stats(&self) -> ProcStats {
        ProcStats::read(self.pid())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// A sample of the server process's own counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProcStats {
    /// User + system CPU time, microseconds.
    pub cpu_us: f64,
    /// Minor page faults.
    pub minflt: u64,
    /// `VmHWM`, KiB.
    pub hwm_kib: u64,
}

impl ProcStats {
    fn read(pid: u32) -> ProcStats {
        let mut out = ProcStats::default();
        if let Ok(stat) = std::fs::read_to_string(format!("/proc/{pid}/stat")) {
            // Fields after the parenthesised command name, which may
            // itself hold spaces.
            let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
            let f: Vec<&str> = rest.split_whitespace().collect();
            let num = |i: usize| f.get(i).and_then(|s| s.parse::<u64>().ok()).unwrap_or(0);
            // `rest` starts at field 3 (state): minflt is field 10,
            // utime 14, stime 15, in clock ticks of 1/100 s (USER_HZ).
            out.minflt = num(7);
            out.cpu_us = (num(11) + num(12)) as f64 * 10_000.0;
        }
        if let Ok(status) = std::fs::read_to_string(format!("/proc/{pid}/status")) {
            out.hwm_kib = status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.split_whitespace().next())
                .and_then(|v| v.parse().ok())
                .unwrap_or(0);
        }
        out
    }
}

/// One connection, one request in flight.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl Client {
    pub fn connect(addr: &str) -> Result<Client, String> {
        let s = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        s.set_nodelay(true).map_err(|e| e.to_string())?;
        s.set_read_timeout(Some(Duration::from_secs(170)))
            .map_err(|e| e.to_string())?;
        let r = s.try_clone().map_err(|e| e.to_string())?;
        Ok(Client {
            reader: BufReader::new(r),
            writer: BufWriter::new(s),
        })
    }

    /// Sends one request line and waits for its reply; returns the reply
    /// and the client-observed round-trip time.
    pub fn call(&mut self, line: &str) -> Result<(Response, Duration), String> {
        let t = Instant::now();
        self.writer
            .write_all(line.as_bytes())
            .and_then(|_| self.writer.write_all(b"\n"))
            .and_then(|_| self.writer.flush())
            .map_err(|e| format!("send `{line:.60}`: {e}"))?;
        let resp = Response::read_from(&mut self.reader)
            .map_err(|e| format!("reply to `{line:.60}`: {e}"))?
            .ok_or_else(|| format!("connection closed on `{line:.60}`"))?;
        Ok((resp, t.elapsed()))
    }

    /// [`Client::call`] for requests that must succeed with `OK`.
    pub fn ok(&mut self, line: &str) -> Result<String, String> {
        match self.call(line)?.0 {
            Response::Ok(m) => Ok(m),
            other => Err(format!(
                "`{line:.60}` answered {}",
                other.render().trim_end()
            )),
        }
    }

    /// `STATS` of the selected database as `key -> value`.
    pub fn stats(&mut self) -> Result<Vec<(String, u64)>, String> {
        match self.call("STATS")?.0 {
            resp @ Response::Stats(_) => Ok(parse_kv(&resp.render())),
            other => Err(format!("STATS answered {}", other.render().trim_end())),
        }
    }

    /// `METRICS` of the selected database.
    pub fn metrics(&mut self) -> Result<String, String> {
        match self.call("METRICS")?.0 {
            Response::Metrics(body) => Ok(body),
            other => Err(format!("METRICS answered {}", other.render().trim_end())),
        }
    }
}

fn parse_kv(line: &str) -> Vec<(String, u64)> {
    line.split_whitespace()
        .filter_map(|kv| kv.split_once('='))
        .filter_map(|(k, v)| Some((k.to_string(), v.parse().ok()?)))
        .collect()
}

/// `key` of a `STATS` reply (0 when absent).
pub fn stat(stats: &[(String, u64)], key: &str) -> u64 {
    stats.iter().find(|(k, _)| k == key).map_or(0, |(_, v)| *v)
}

/// The `count` or `sum` (nanoseconds) of the completed requests of
/// `verb` in a `METRICS` body.
pub fn verb_series(metrics: &str, db: &str, verb: &str, series: &str) -> u64 {
    let series = format!(
        "indord_request_duration_ns_{series}{{db=\"{db}\",verb=\"{verb}\",status=\"ok\"}} "
    );
    metrics
        .lines()
        .find_map(|l| l.strip_prefix(&series))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0)
}
