//! End-to-end parity of the real binary: streaming a job file through
//! `pardp serve --pipe` must answer with records bit-identical to
//! `pardp batch` on the same file (modulo the nondeterministic
//! `wall_seconds`), because both front ends share `pardp_core::spec`
//! and the same scheduling regimes. `pardp serve --addr` answers the
//! same protocol over TCP.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

use pardp_core::prelude::JobRecord;
use pardp_core::serve::DEFAULT_QUEUE_CAPACITY;

const JOBS: &str = r#"{"family":"chain","values":[30,35,15,5,10,20,25]}
{"family":"obst","values":[15,10,5,10,20],"q":[5,10,5,5,5,10],"algo":"reduced"}
{"family":"merge","values":[10,20,30],"algo":"wavefront"}
{"family":"polygon","values":[1,10,1,10],"algo":"seq"}
{"family":"chain","values":[3,5,7,2,8],"trace":true}
"#;

fn pardp() -> Command {
    Command::new(env!("CARGO_BIN_EXE_pardp"))
}

fn records(lines: &str) -> Vec<JobRecord> {
    lines
        .lines()
        .map(|l| {
            let r: JobRecord = serde_json::from_str(l).unwrap_or_else(|e| panic!("{e:?}: {l}"));
            r.deterministic()
        })
        .collect()
}

#[test]
fn serve_pipe_matches_batch_on_the_same_job_file() {
    let path = std::env::temp_dir().join(format!("pardp-serve-e2e-{}.jsonl", std::process::id()));
    std::fs::write(&path, JOBS).unwrap();

    let batch = pardp().arg("batch").arg(&path).output().unwrap();
    assert!(batch.status.success(), "{batch:?}");
    let batch_out = String::from_utf8(batch.stdout).unwrap();
    // Drop the batch summary trailer; serve answers per request only.
    let batch_lines: Vec<&str> = batch_out.lines().collect();
    let (records_part, trailer) = batch_lines.split_at(batch_lines.len() - 1);
    assert!(trailer[0].contains("\"throughput\""), "{}", trailer[0]);

    let mut serve = pardp()
        .args(["serve", "--pipe"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    serve
        .stdin
        .take()
        .unwrap()
        .write_all(JOBS.as_bytes())
        .unwrap();
    let out = serve.wait_with_output().unwrap();
    assert!(out.status.success(), "{out:?}");
    let serve_out = String::from_utf8(out.stdout).unwrap();

    let batch_records = records(&records_part.join("\n"));
    let serve_records = records(&serve_out);
    assert_eq!(batch_records.len(), 5);
    assert_eq!(serve_records, batch_records);

    // The drained-counter summary goes to stderr, not into the protocol.
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("completed 5"), "{err}");

    std::fs::remove_file(&path).ok();
}

#[test]
fn serve_pipe_stats_and_shutdown_commands_work_end_to_end() {
    let mut serve = pardp()
        .args(["serve", "--pipe", "--queue", "4"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .unwrap();
    serve
        .stdin
        .take()
        .unwrap()
        .write_all(
            b"{\"family\":\"chain\",\"values\":[2,3,4]}\n\
              {\"cmd\":\"stats\"}\n\
              {\"cmd\":\"shutdown\"}\n\
              {\"family\":\"chain\",\"values\":[4,5,6]}\n",
        )
        .unwrap();
    let out = serve.wait_with_output().unwrap();
    assert!(out.status.success(), "{out:?}");
    let text = String::from_utf8(out.stdout).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 3, "record + stats + ack, then EOF: {text}");
    assert!(lines[0].contains("\"value\":24"), "{}", lines[0]);
    assert!(lines[1].contains("\"queue_capacity\":4"), "{}", lines[1]);
    assert!(lines[2].contains("\"ok\":\"shutdown\""), "{}", lines[2]);
}

#[test]
fn serve_rejects_bad_transport_combinations() {
    let out = pardp().arg("serve").output().unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("exactly one"), "{err}");
}

/// A daemon process, killed if a failing assertion leaves it running.
struct Daemon(Child);

impl Drop for Daemon {
    fn drop(&mut self) {
        self.0.kill().ok();
        self.0.wait().ok();
    }
}

#[test]
fn serve_addr_answers_and_shuts_down_over_one_tcp_connection() {
    let mut serve = Daemon(
        pardp()
            .args(["serve", "--addr", "127.0.0.1:0", "--backend", "1"])
            .stdin(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .unwrap(),
    );
    // The first stderr line names the bound port.
    let mut stderr = BufReader::new(serve.0.stderr.take().unwrap());
    let mut listening = String::new();
    stderr.read_line(&mut listening).unwrap();
    let addr = listening
        .strip_prefix("pardp serve: listening on ")
        .and_then(|rest| {
            rest.strip_suffix(&format!(" (1 worker, queue {DEFAULT_QUEUE_CAPACITY})\n"))
        })
        .unwrap_or_else(|| panic!("{listening}"));

    let stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    (&stream)
        .write_all(
            b"{\"family\":\"chain\",\"values\":[30,35,15,5,10,20,25]}\n\
              {\"cmd\":\"shutdown\"}\n",
        )
        .unwrap();
    let mut answers = BufReader::new(&stream).lines();
    let record = answers.next().unwrap().unwrap();
    assert!(record.contains("\"value\":15125"), "{record}");
    assert_eq!(answers.next().unwrap().unwrap(), r#"{"ok":"shutdown"}"#);

    let status = serve.0.wait().unwrap();
    assert!(status.success(), "{status:?}");
    let mut rest = String::new();
    stderr.read_to_string(&mut rest).unwrap();
    let drained = rest
        .lines()
        .find(|l| l.starts_with("pardp serve: drained"))
        .unwrap_or_else(|| panic!("{rest}"));
    assert!(drained.contains(" accepted 1 "), "{drained}");
    assert!(drained.contains(" completed 1 "), "{drained}");
}
