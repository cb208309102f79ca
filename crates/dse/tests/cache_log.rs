//! A killed `cimflow-dse serve --cache F` keeps every point it answered:
//! the cache is a log, and each new result is appended to it before its
//! answer goes out, so a server restarted on `F` starts warm.
//!
//! Every child is reaped, also when an assertion fails, so no server is
//! left running.

use std::io::{BufRead, BufReader, Write};
use std::path::Path;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};

use cimflow_dse::serve::{Response, WireOutcome};

/// A `cimflow-dse serve` child speaking the wire on its stdin/stdout.
struct Server {
    child: Child,
    stdin: ChildStdin,
    stdout: BufReader<ChildStdout>,
}

impl Server {
    fn start(cache: &Path) -> Self {
        let mut child = Command::new(env!("CARGO_BIN_EXE_cimflow-dse"))
            .args(["serve", "--workers", "1", "--quiet", "--cache"])
            .arg(cache)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("the server starts");
        let stdin = child.stdin.take().expect("stdin is piped");
        let stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        Server { child, stdin, stdout }
    }

    /// Sends one request line and reads its one response line.
    fn exchange(&mut self, request: &str) -> Response {
        writeln!(self.stdin, "{request}").expect("the server reads its stdin");
        self.stdin.flush().expect("the server reads its stdin");
        let mut line = String::new();
        self.stdout.read_line(&mut line).expect("the server answers");
        serde_json::from_str(&line).unwrap_or_else(|e| panic!("{request} answered {line:?}: {e}"))
    }

    /// Submits the mobilenetv2 point with `mg` macros per group and waits
    /// for its outcome.
    fn evaluate(&mut self, mg: u32) -> WireOutcome {
        let submit = format!(
            r#"{{"submit": {{"model": {{"name": "mobilenetv2", "resolution": 32}}, "strategy": "generic", "mg_size": {mg}}}}}"#
        );
        let job = match self.exchange(&submit) {
            Response::Accepted { job } => job,
            other => panic!("the submission was not accepted: {other:?}"),
        };
        match self.exchange(&format!(r#"{{"wait": {{"job": {job}}}}}"#)) {
            Response::Result(outcome) if outcome.ok => outcome,
            other => panic!("job {job} did not succeed: {other:?}"),
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

#[test]
fn a_killed_server_restarts_with_every_answered_point_cached() {
    let dir = std::env::temp_dir().join("cimflow-dse-cache-log-test");
    std::fs::create_dir_all(&dir).expect("create the scratch directory");
    let cache = dir.join("killed.jsonl");
    std::fs::remove_file(&cache).ok();

    let mut server = Server::start(&cache);
    for mg in [4, 8, 16] {
        assert!(!server.evaluate(mg).cached, "MG {mg} is evaluated");
    }
    server.child.kill().expect("the server is running");
    server.child.wait().expect("the killed server is reaped");
    drop(server);

    let mut server = Server::start(&cache);
    match server.exchange(r#"{"stats": {}}"#) {
        Response::Stats { cache_entries, .. } => assert_eq!(cache_entries, 3),
        other => panic!("not a stats reply: {other:?}"),
    }
    assert!(server.evaluate(8).cached, "the restarted server answers from its cache");
    assert_eq!(server.exchange(r#"{"shutdown": {}}"#), Response::ShuttingDown);
    let status = server.child.wait().expect("the server exits");
    assert!(status.success(), "{status}");
    std::fs::remove_file(&cache).ok();
}
