//! Wire-layer hardening tests for `pao serve`: hostile frames, admission
//! limits, stale sockets, crash recovery and the `pao call` transport
//! contract. Each test talks to a real daemon process over a Unix socket
//! with raw streams (not `pao call`) so it can send byte sequences no
//! well-behaved client would.

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

fn pao() -> Command {
    Command::new(env!("CARGO_BIN_EXE_pao"))
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("pao-serve-hardening");
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(name)
}

/// Generates the smoke LEF/DEF pair once per test (distinct names keep
/// parallel tests isolated).
fn gen_world(stem: &str) -> (PathBuf, PathBuf) {
    let lef = tmp(&format!("{stem}.lef"));
    let def = tmp(&format!("{stem}.def"));
    assert!(pao()
        .args(["gen", "smoke", "--lef"])
        .arg(&lef)
        .arg("--def")
        .arg(&def)
        .stdout(Stdio::null())
        .status()
        .expect("gen spawns")
        .success());
    (lef, def)
}

/// Spawns a daemon and waits until its socket answers. Every test path
/// reaps the child (clean `shutdown()` or `kill()` + `wait()`).
#[allow(clippy::zombie_processes)]
fn spawn_daemon(lef: &Path, def: &Path, sock: &Path, extra: &[&str]) -> Child {
    let _ = std::fs::remove_file(sock);
    let daemon = pao()
        .arg("serve")
        .arg(lef)
        .arg(def)
        .arg("--socket")
        .arg(sock)
        .args(["--threads", "2"])
        .args(extra)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("daemon spawns");
    for _ in 0..400 {
        if UnixStream::connect(sock).is_ok() {
            return daemon;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    panic!("daemon never came up on {}", sock.display());
}

/// A raw client connection with a read timeout (a hung test is a failed
/// test, not a stuck CI job).
fn raw_conn(sock: &Path) -> (UnixStream, BufReader<UnixStream>) {
    let s = UnixStream::connect(sock).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(20)))
        .expect("read timeout");
    let r = BufReader::new(s.try_clone().expect("clone"));
    (s, r)
}

fn send(s: &mut UnixStream, bytes: &[u8]) {
    s.write_all(bytes).expect("send");
    s.flush().expect("flush");
}

fn recv_line(r: &mut BufReader<UnixStream>) -> String {
    let mut line = String::new();
    let n = r.read_line(&mut line).expect("response read");
    assert!(n > 0, "daemon closed the connection unexpectedly");
    line
}

fn error_code(line: &str) -> Option<i64> {
    pao_obs::json::parse(line)
        .expect("response parses as JSON")
        .get("error")
        .and_then(|e| e.get("code"))
        .and_then(pao_obs::json::Value::as_i64)
}

fn has_result(line: &str) -> bool {
    pao_obs::json::parse(line)
        .expect("response parses as JSON")
        .get("result")
        .is_some()
}

fn shutdown(sock: &Path, daemon: &mut Child) {
    let (mut s, mut r) = raw_conn(sock);
    send(&mut s, b"{\"id\":99,\"method\":\"shutdown\"}\n");
    let resp = recv_line(&mut r);
    assert!(has_result(&resp), "shutdown failed: {resp}");
    let status = daemon.wait().expect("daemon exit");
    assert!(status.success(), "daemon exited {status:?}");
}

/// Truncated JSON, then binary garbage, then a valid request — all on
/// one connection. The first two earn parse errors; the connection must
/// survive to serve the third.
#[test]
fn garbage_frames_get_typed_errors_and_connection_survives() {
    let (lef, def) = gen_world("garbage");
    let sock = tmp("garbage.sock");
    let mut daemon = spawn_daemon(&lef, &def, &sock, &[]);
    let (mut s, mut r) = raw_conn(&sock);

    send(&mut s, b"{\"id\":1,\"method\":\n");
    assert_eq!(error_code(&recv_line(&mut r)), Some(-32700));

    let mut garbage: Vec<u8> = (1u8..=255).filter(|&b| b != b'\n').collect();
    garbage.push(b'\n');
    send(&mut s, &garbage);
    assert_eq!(error_code(&recv_line(&mut r)), Some(-32700));

    send(&mut s, b"{\"id\":2,\"method\":\"stats\"}\n");
    assert!(has_result(&recv_line(&mut r)));
    drop((s, r));
    shutdown(&sock, &mut daemon);
}

/// A frame past `--max-frame-bytes` is drained and rejected with
/// `-32002`; the same connection keeps serving, and the `serve` counters
/// (via `stats` and `pao profile --socket`) record the rejection.
#[test]
fn oversized_frame_rejected_and_counted_without_closing_connection() {
    let (lef, def) = gen_world("oversized");
    let sock = tmp("oversized.sock");
    let mut daemon = spawn_daemon(&lef, &def, &sock, &["--max-frame-bytes", "4096"]);
    let (mut s, mut r) = raw_conn(&sock);

    let mut big = vec![b'x'; 9000];
    big.push(b'\n');
    send(&mut s, &big);
    assert_eq!(error_code(&recv_line(&mut r)), Some(-32002));

    send(&mut s, b"{\"id\":1,\"method\":\"stats\"}\n");
    let resp = recv_line(&mut r);
    assert!(has_result(&resp));
    let v = pao_obs::json::parse(&resp).expect("stats parses");
    let oversized = v
        .get("result")
        .and_then(|x| x.get("serve"))
        .and_then(|x| x.get("oversized"))
        .and_then(pao_obs::json::Value::as_i64)
        .expect("serve.oversized present");
    assert!(oversized >= 1, "oversized counter should record the frame");

    let profile = pao()
        .arg("profile")
        .arg("--socket")
        .arg(&sock)
        .output()
        .expect("profile runs");
    assert!(profile.status.success());
    let text = String::from_utf8_lossy(&profile.stdout);
    assert!(text.contains("serve.oversized"), "profile output: {text}");

    drop((s, r));
    shutdown(&sock, &mut daemon);
}

/// A client that vanishes mid-request must not take the daemon with it.
#[test]
fn abrupt_disconnect_leaves_daemon_serving() {
    let (lef, def) = gen_world("abrupt");
    let sock = tmp("abrupt.sock");
    let mut daemon = spawn_daemon(&lef, &def, &sock, &[]);

    let (mut s, _r) = raw_conn(&sock);
    send(&mut s, b"{\"id\":1,\"meth"); // no newline, then hang up
    drop(s);
    std::thread::sleep(Duration::from_millis(100));

    let (mut s, mut r) = raw_conn(&sock);
    send(&mut s, b"{\"id\":2,\"method\":\"stats\"}\n");
    assert!(has_result(&recv_line(&mut r)));
    drop((s, r));
    shutdown(&sock, &mut daemon);
}

/// `--max-requests N`: request N+1 on one connection earns `-32003` and
/// the connection closes; a fresh connection starts a fresh budget.
#[test]
fn per_connection_request_cap_closes_with_typed_error() {
    let (lef, def) = gen_world("reqcap");
    let sock = tmp("reqcap.sock");
    let mut daemon = spawn_daemon(&lef, &def, &sock, &["--max-requests", "3"]);
    let (mut s, mut r) = raw_conn(&sock);
    for i in 0..3 {
        send(
            &mut s,
            format!("{{\"id\":{i},\"method\":\"stats\"}}\n").as_bytes(),
        );
        assert!(has_result(&recv_line(&mut r)));
    }
    send(&mut s, b"{\"id\":4,\"method\":\"stats\"}\n");
    assert_eq!(error_code(&recv_line(&mut r)), Some(-32003));
    let mut rest = String::new();
    assert_eq!(
        r.read_line(&mut rest).expect("post-cap read"),
        0,
        "connection must close after the request cap"
    );
    drop((s, r));

    let (mut s, mut r) = raw_conn(&sock);
    send(&mut s, b"{\"id\":5,\"method\":\"stats\"}\n");
    assert!(has_result(&recv_line(&mut r)));
    drop((s, r));
    shutdown(&sock, &mut daemon);
}

/// `--idle-ms`: a silent connection is closed; the daemon keeps serving
/// new ones.
#[test]
fn idle_connection_is_closed() {
    let (lef, def) = gen_world("idle");
    let sock = tmp("idle.sock");
    let mut daemon = spawn_daemon(&lef, &def, &sock, &["--idle-ms", "200"]);
    let (_s, mut r) = raw_conn(&sock);
    let mut line = String::new();
    let n = r.read_line(&mut line).expect("idle read");
    assert_eq!(n, 0, "idle connection must be closed, got: {line}");

    let (mut s, mut r) = raw_conn(&sock);
    send(&mut s, b"{\"id\":1,\"method\":\"stats\"}\n");
    assert!(has_result(&recv_line(&mut r)));
    drop((s, r));
    shutdown(&sock, &mut daemon);
}

/// `--max-conns 1`: a second concurrent connection is shed with the
/// typed `-32001` + retry hint; the first keeps working.
#[test]
fn connection_cap_sheds_with_retry_hint() {
    let (lef, def) = gen_world("conncap");
    let sock = tmp("conncap.sock");
    let mut daemon = spawn_daemon(&lef, &def, &sock, &["--max-conns", "1"]);
    // Acquire the single serving slot. The readiness probe inside
    // spawn_daemon may still be draining its own connection for a
    // moment, so the first attempts can legitimately be shed — retry
    // until a connection completes a stats round trip.
    let (mut s1, mut r1) = loop {
        let (mut s, mut r) = raw_conn(&sock);
        send(&mut s, b"{\"id\":1,\"method\":\"stats\"}\n");
        if has_result(&recv_line(&mut r)) {
            break (s, r);
        }
        drop((s, r));
        std::thread::sleep(Duration::from_millis(25));
    };

    let (_s2, mut r2) = raw_conn(&sock);
    let line = recv_line(&mut r2);
    assert_eq!(error_code(&line), Some(-32001), "got: {line}");
    assert!(line.contains("retry_after_ms"), "got: {line}");

    send(&mut s1, b"{\"id\":2,\"method\":\"stats\"}\n");
    assert!(has_result(&recv_line(&mut r1)));
    drop((s1, r1));
    shutdown(&sock, &mut daemon);
}

/// Stale-socket startup: a path held by a *live* daemon is refused
/// (exit 3); the socket file left behind by a SIGKILLed daemon is
/// probed, found dead, unlinked and reclaimed.
#[test]
fn stale_socket_reclaimed_but_live_socket_refused() {
    let (lef, def) = gen_world("stale");
    let sock = tmp("stale.sock");
    let mut daemon = spawn_daemon(&lef, &def, &sock, &[]);

    let second = pao()
        .arg("serve")
        .arg(&lef)
        .arg(&def)
        .arg("--socket")
        .arg(&sock)
        .output()
        .expect("second serve runs");
    assert_eq!(second.status.code(), Some(3), "live socket must be refused");
    assert!(
        String::from_utf8_lossy(&second.stderr).contains("in use"),
        "stderr: {}",
        String::from_utf8_lossy(&second.stderr)
    );

    daemon.kill().expect("SIGKILL daemon");
    daemon.wait().expect("reap");
    assert!(sock.exists(), "SIGKILL leaves the socket file behind");

    // spawn_daemon would unlink the file itself; bypass that to prove
    // the daemon reclaims it.
    let mut revived = pao()
        .arg("serve")
        .arg(&lef)
        .arg(&def)
        .arg("--socket")
        .arg(&sock)
        .args(["--threads", "2"])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("revived daemon spawns");
    let mut up = false;
    for _ in 0..400 {
        if let Ok(mut s) = UnixStream::connect(&sock) {
            s.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
            let mut r = BufReader::new(s.try_clone().unwrap());
            send(&mut s, b"{\"id\":1,\"method\":\"stats\"}\n");
            if has_result(&recv_line(&mut r)) {
                up = true;
                break;
            }
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    assert!(up, "daemon must reclaim the stale socket");
    shutdown(&sock, &mut revived);
}

/// `pao call` transport contract: an endpoint that never answers fails
/// with exit 7 (distinct from server-side in-band errors, which exit 0 —
/// covered by the main CLI serve test).
#[test]
fn call_connect_timeout_exits_transport_code() {
    let out = pao()
        .args([
            "call",
            "--socket",
            "/nonexistent/pao-hardening.sock",
            "--timeout-ms",
            "300",
            "{\"id\":1,\"method\":\"stats\"}",
        ])
        .output()
        .expect("call runs");
    assert_eq!(out.status.code(), Some(7), "transport failures exit 7");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("transport"),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

/// `shutdown` racing an in-flight `eco_update` never leaves a partial
/// swap: after the daemon exits, a `--resume` restart must serve a dump
/// byte-identical to a fresh twin that serially replays the recovered
/// journal — whether the racing ECO committed or not.
#[test]
fn shutdown_racing_eco_is_never_a_partial_swap() {
    let (lef, def) = gen_world("race");
    let sock = tmp("race.sock");
    let ckpt = tmp("race-ckpt");
    let _ = std::fs::remove_dir_all(&ckpt);
    let ckpt_arg = ckpt.to_string_lossy().into_owned();
    let mut daemon = spawn_daemon(&lef, &def, &sock, &["--checkpoint", &ckpt_arg]);

    // Learn a movable instance name from the dump.
    let (mut s, mut r) = raw_conn(&sock);
    send(&mut s, b"{\"id\":1,\"method\":\"dump_selection\"}\n");
    let dump_resp = recv_line(&mut r);
    let v = pao_obs::json::parse(&dump_resp).expect("dump parses");
    let dump = v
        .get("result")
        .and_then(|x| x.get("dump"))
        .and_then(pao_obs::json::Value::as_str)
        .expect("dump text")
        .to_owned();
    // Dump lines read `comp <idx> <name> pattern <p>` — the instance
    // name is the third token.
    let inst = dump
        .lines()
        .find_map(|l| l.split_whitespace().nth(2))
        .expect("dump names an instance")
        .to_owned();

    // Race: the ECO goes out on this connection; shutdown lands on a
    // second connection a moment later, while the ECO may still be
    // re-analyzing under the write lock.
    let eco = format!(
        "{{\"id\":2,\"method\":\"eco_update\",\"params\":{{\"moves\":[{{\"inst\":\"{inst}\",\"dx\":40,\"dy\":0}}]}}}}\n"
    );
    send(&mut s, eco.as_bytes());
    std::thread::sleep(Duration::from_millis(5));
    if let Ok(mut s2) = UnixStream::connect(&sock) {
        let _ = s2.set_read_timeout(Some(Duration::from_secs(20)));
        let _ = s2.write_all(b"{\"id\":3,\"method\":\"shutdown\"}\n");
        let _ = s2.flush();
        // Best-effort read; an accepted shutdown is latched server-side
        // even if this client vanished without reading the reply.
        let mut resp = String::new();
        let _ = BufReader::new(s2).read_line(&mut resp);
    }
    let status = daemon.wait().expect("daemon exit");
    assert!(status.success(), "daemon exited {status:?}");
    drop((s, r));

    // Twin A: restart from the checkpoint dir's journal.
    let resumed_sock = tmp("race-resumed.sock");
    let mut resumed = spawn_daemon(
        &lef,
        &def,
        &resumed_sock,
        &["--checkpoint", &ckpt_arg, "--resume"],
    );
    let (mut s, mut r) = raw_conn(&resumed_sock);
    send(&mut s, b"{\"id\":1,\"method\":\"dump_selection\"}\n");
    let resumed_dump = recv_line(&mut r);
    drop((s, r));
    shutdown(&resumed_sock, &mut resumed);

    // Twin B: a fresh daemon fed the journal's batches serially.
    let journal = ckpt.join("eco.journal");
    let emit = pao()
        .arg("soak")
        .args(["--mode", "emit", "--journal"])
        .arg(&journal)
        .output()
        .expect("emit runs");
    assert!(emit.status.success());
    let twin_sock = tmp("race-twin.sock");
    let mut twin = spawn_daemon(&lef, &def, &twin_sock, &[]);
    let (mut s, mut r) = raw_conn(&twin_sock);
    for line in String::from_utf8_lossy(&emit.stdout).lines() {
        send(&mut s, format!("{line}\n").as_bytes());
        let resp = recv_line(&mut r);
        assert!(has_result(&resp), "journaled ECO must replay: {resp}");
    }
    send(&mut s, b"{\"id\":1,\"method\":\"dump_selection\"}\n");
    let twin_dump = recv_line(&mut r);
    drop((s, r));
    shutdown(&twin_sock, &mut twin);

    assert_eq!(
        resumed_dump, twin_dump,
        "resumed dump diverged from the serial-replay twin"
    );
}

/// ECO batches survive `kill -9`: what the journal accepted before the
/// kill replays to the same snapshot on restart.
#[test]
fn kill_dash_nine_then_resume_replays_journal() {
    let (lef, def) = gen_world("kill9");
    let sock = tmp("kill9.sock");
    let ckpt = tmp("kill9-ckpt");
    let _ = std::fs::remove_dir_all(&ckpt);
    let ckpt_arg = ckpt.to_string_lossy().into_owned();
    let mut daemon = spawn_daemon(&lef, &def, &sock, &["--checkpoint", &ckpt_arg]);

    let (mut s, mut r) = raw_conn(&sock);
    send(&mut s, b"{\"id\":1,\"method\":\"dump_selection\"}\n");
    let v = pao_obs::json::parse(&recv_line(&mut r)).expect("dump parses");
    let dump = v
        .get("result")
        .and_then(|x| x.get("dump"))
        .and_then(pao_obs::json::Value::as_str)
        .expect("dump text")
        .to_owned();
    let inst = dump
        .lines()
        .find_map(|l| l.split_whitespace().nth(2))
        .expect("instance")
        .to_owned();
    let eco = format!(
        "{{\"id\":2,\"method\":\"eco_update\",\"params\":{{\"moves\":[{{\"inst\":\"{inst}\",\"dx\":40,\"dy\":0}}]}}}}\n"
    );
    send(&mut s, eco.as_bytes());
    assert!(has_result(&recv_line(&mut r)), "eco must apply");
    daemon.kill().expect("SIGKILL");
    daemon.wait().expect("reap");
    drop((s, r));

    let resumed_sock = tmp("kill9-resumed.sock");
    let mut resumed = spawn_daemon(
        &lef,
        &def,
        &resumed_sock,
        &["--checkpoint", &ckpt_arg, "--resume"],
    );
    let (mut s, mut r) = raw_conn(&resumed_sock);
    send(&mut s, b"{\"id\":1,\"method\":\"stats\"}\n");
    let stats = pao_obs::json::parse(&recv_line(&mut r)).expect("stats parses");
    let replayed = stats
        .get("result")
        .and_then(|x| x.get("serve"))
        .and_then(|x| x.get("journal_replayed"))
        .and_then(pao_obs::json::Value::as_i64)
        .expect("serve.journal_replayed");
    assert_eq!(replayed, 1, "the killed daemon's ECO must replay");
    let eco_updates = stats
        .get("result")
        .and_then(|x| x.get("eco_updates"))
        .and_then(pao_obs::json::Value::as_i64)
        .expect("eco_updates");
    assert_eq!(eco_updates, 1);
    drop((s, r));
    shutdown(&resumed_sock, &mut resumed);
}

/// An instance whose master has a pin named `A` (not every master does —
/// the flops use D/CK/Q), read from the generated LEF/DEF text.
fn inst_with_pin_a(lef: &Path, def: &Path) -> String {
    let lef = std::fs::read_to_string(lef).expect("read lef");
    let mut masters = Vec::new();
    let mut cur = None;
    for line in lef.lines() {
        let t: Vec<&str> = line.split_whitespace().collect();
        match t.as_slice() {
            ["MACRO", name, ..] => cur = Some(name.to_string()),
            ["PIN", "A", ..] => masters.extend(cur.clone()),
            _ => {}
        }
    }
    let def = std::fs::read_to_string(def).expect("read def");
    def.lines()
        .find_map(|line| {
            let t: Vec<&str> = line.split_whitespace().collect();
            match t.as_slice() {
                ["-", inst, master, ..] if masters.iter().any(|m| m == master) => {
                    Some(inst.to_string())
                }
                _ => None,
            }
        })
        .expect("an instance with pin A")
}

fn stats_field(line: &str, path: &[&str]) -> i64 {
    let v = pao_obs::json::parse(line).expect("stats parses");
    let mut cur = v.get("result").expect("stats result");
    for key in path {
        cur = cur
            .get(key)
            .unwrap_or_else(|| panic!("stats lacks {path:?}"));
    }
    cur.as_i64().expect("numeric stats field")
}

/// Queries never wait for an ECO. While an injected stall holds the
/// ECO's re-analysis, `get_pin_access` and `stats` on a second
/// connection are answered from the pre-ECO snapshot, and both replies
/// arrive before the ECO's own reply (the degraded `-32004`: the stall
/// trips the watchdog). Asserted on ordering — the ECO connection has no
/// reply yet when the queries are answered — not on timing.
#[test]
fn queries_are_answered_while_an_eco_stalls() {
    let (lef, def) = gen_world("stall");
    let inst = inst_with_pin_a(&lef, &def);
    let sock = tmp("stall.sock");
    let mut daemon = spawn_daemon(&lef, &def, &sock, &["--inject-stall", "select:0:1500"]);
    let pin_req = format!(
        "{{\"id\":5,\"method\":\"get_pin_access\",\"params\":{{\"inst\":\"{inst}\",\"pin\":\"A\"}}}}\n"
    );
    let (mut q, mut qr) = raw_conn(&sock);
    send(&mut q, pin_req.as_bytes());
    let pre_eco = recv_line(&mut qr);
    assert!(has_result(&pre_eco), "{pre_eco}");

    let (mut e, mut er) = raw_conn(&sock);
    let eco = format!(
        "{{\"id\":2,\"method\":\"eco_update\",\"params\":{{\"moves\":[{{\"inst\":\"{inst}\",\"dx\":40,\"dy\":0}}]}}}}\n"
    );
    send(&mut e, eco.as_bytes());
    // Wait (by polling `stats`, itself a query) until the daemon has the
    // ECO in flight.
    let mut in_flight = false;
    for _ in 0..400 {
        send(&mut q, b"{\"id\":3,\"method\":\"stats\"}\n");
        if stats_field(&recv_line(&mut qr), &["serve", "eco_inflight"]) == 1 {
            in_flight = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(in_flight, "the ECO never showed as in flight");

    send(&mut q, pin_req.as_bytes());
    let during = recv_line(&mut qr);
    send(&mut q, b"{\"id\":4,\"method\":\"stats\"}\n");
    let stats = recv_line(&mut qr);

    // Both query replies are in; the ECO's reply must not be yet.
    e.set_nonblocking(true).expect("nonblocking");
    let mut probe = String::new();
    match er.read_line(&mut probe) {
        Err(err) if err.kind() == std::io::ErrorKind::WouldBlock => {}
        other => panic!("ECO reply arrived before the queries' replies: {other:?} {probe:?}"),
    }
    e.set_nonblocking(false).expect("blocking");

    assert_eq!(
        during, pre_eco,
        "a query during the ECO must see the pre-ECO snapshot"
    );
    assert_eq!(stats_field(&stats, &["eco_updates"]), 0);
    assert_eq!(stats_field(&stats, &["serve", "eco_inflight"]), 1);
    assert_eq!(stats_field(&stats, &["serve", "eco_degraded"]), 0);

    let eco_reply = recv_line(&mut er);
    assert_eq!(error_code(&eco_reply), Some(-32004), "{eco_reply}");
    send(&mut q, b"{\"id\":6,\"method\":\"stats\"}\n");
    let after = recv_line(&mut qr);
    assert_eq!(stats_field(&after, &["serve", "eco_degraded"]), 1);
    assert_eq!(stats_field(&after, &["serve", "eco_inflight"]), 0);
    assert_eq!(stats_field(&after, &["eco_updates"]), 0);
    drop((q, qr, e, er));
    shutdown(&sock, &mut daemon);
}
