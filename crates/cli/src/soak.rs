//! `pao soak` — the chaos client behind `scripts/soak_serve.sh`.
//!
//! Three modes, all deterministic from `--seed` (the in-repo
//! [`pao_ptest::Rng`], no wall-clock entropy in the traffic mix):
//!
//! * `--mode hostile` floods the daemon from `--clients` concurrent
//!   connections with a mix of valid queries, malformed JSON, binary
//!   garbage, oversized frames, empty lines and half-closed requests for
//!   `--duration-ms`. The invariant checked: every response line the
//!   daemon sends parses as JSON (typed errors are fine — a closed or
//!   garbled response is not), and the daemon never becomes unreachable.
//! * `--mode eco` streams `--count` random ECO batches over the named
//!   `--inst` instances. The daemon being killed mid-burst is an
//!   *expected* outcome (the crash-recovery gate does exactly that), so
//!   a dead connection ends the run with `"died":true` and exit 0.
//! * `--mode emit` reads a recovered `--journal FILE` and prints one
//!   `eco_update` request line per journaled batch — piped through
//!   `pao call`, this replays the exact accepted history against a fresh
//!   daemon for the byte-identity check.
//!
//! Each mode prints a single JSON summary line on stdout.

use crate::args::Args;
use crate::serve::{self, Stream};
use crate::CliError;
use pao_obs::json::{self, Value};
use std::io::{BufRead, BufReader, Write};
use std::path::Path;
use std::time::{Duration, Instant};

/// What one hostile client observed.
#[derive(Default)]
struct ClientStats {
    sent: u64,
    responses: u64,
    rpc_errors: u64,
    reconnects: u64,
    half_closes: u64,
    /// Protocol violations (unparsable response, response timeout). Any
    /// entry fails the soak.
    violations: Vec<String>,
}

/// One live connection: writer half + buffered reader half.
struct Conn {
    stream: Stream,
    reader: BufReader<Stream>,
}

fn open_conn(args: &Args, timeout: Duration) -> Result<Conn, CliError> {
    let stream = serve::connect(args, timeout)?;
    stream
        .set_read_timeout(Some(timeout))
        .map_err(|e| CliError::Transport(format!("cannot set read timeout: {e}")))?;
    let reader_half = stream
        .try_clone()
        .map_err(|e| CliError::Transport(format!("cannot clone connection: {e}")))?;
    Ok(Conn {
        stream,
        reader: BufReader::new(reader_half),
    })
}

/// Sends one line. `Err(())` means the connection is gone.
fn send_line(conn: &mut Conn, line: &[u8]) -> Result<(), ()> {
    conn.stream
        .write_all(line)
        .and_then(|()| conn.stream.write_all(b"\n"))
        .and_then(|()| conn.stream.flush())
        .map_err(|_| ())
}

/// Reads one response line. `Ok(None)` = EOF, `Err(())` = read timeout.
fn read_line(conn: &mut Conn) -> Result<Option<String>, ()> {
    let mut line = String::new();
    match conn.reader.read_line(&mut line) {
        Ok(0) => Ok(None),
        Ok(_) => Ok(Some(line)),
        Err(_) => Err(()),
    }
}

/// One hostile client: random traffic until the deadline.
fn hostile_client(
    args: &Args,
    timeout: Duration,
    seed: u64,
    until: Instant,
    inst: Option<&str>,
    pin: Option<&str>,
) -> Result<ClientStats, CliError> {
    let mut rng = pao_ptest::Rng::new(seed);
    let mut st = ClientStats::default();
    let mut conn: Option<Conn> = None;
    let mut next_id: u64 = 1;
    while Instant::now() < until {
        if conn.is_none() {
            // The daemon may shed this connect under `--max-conns`
            // pressure; `connect` keeps retrying with backoff, so a
            // `Transport` error here means it stayed unreachable for the
            // whole timeout — a real soak failure (exit 7).
            conn = Some(open_conn(args, timeout)?);
        }
        let Some(c) = conn.as_mut() else { continue };
        let roll = rng.gen_range(0..100u64);
        let id = next_id;
        next_id += 1;
        // (request bytes, expects a response back)
        let (request, expects_response): (Vec<u8>, bool) = if roll < 35 {
            (
                format!("{{\"id\":{id},\"method\":\"stats\"}}").into_bytes(),
                true,
            )
        } else if roll < 45 {
            (
                format!("{{\"id\":{id},\"method\":\"dump_selection\"}}").into_bytes(),
                true,
            )
        } else if roll < 60 {
            // A valid-shaped query; without --inst/--pin it names a ghost
            // instance and earns a typed service error, which is fine.
            let (i, p) = (inst.unwrap_or("soak_ghost"), pin.unwrap_or("A"));
            (
                format!(
                    "{{\"id\":{id},\"method\":\"get_pin_access\",\"params\":{{\"inst\":{},\"pin\":{}}}}}",
                    json::quote(i),
                    json::quote(p),
                )
                .into_bytes(),
                true,
            )
        } else if roll < 75 {
            // Malformed JSON → -32700.
            let broken = [
                "{\"id\":1,\"method\":",
                "not json at all",
                "{\"id\":}",
                "[1,2,",
                "{\"method\" \"stats\"}",
            ];
            (rng.pick(&broken).as_bytes().to_vec(), true)
        } else if roll < 85 {
            // Binary garbage (newline-free so it stays one frame) →
            // lossy decode → parse error, never a dead connection.
            let len = rng.gen_range(1..64u64) as usize;
            let bytes: Vec<u8> = (0..len)
                .map(|_| {
                    let b = rng.gen_range(1..=255u64) as u8;
                    if b == b'\n' {
                        b'\r'
                    } else {
                        b
                    }
                })
                .collect();
            (bytes, true)
        } else if roll < 90 {
            // Empty line: the daemon skips it silently.
            (Vec::new(), false)
        } else if roll < 95 {
            // Oversized frame: under the soak gate's --max-frame-bytes
            // 4096 this earns -32002; under a default daemon it is just
            // a big unparsable line. Both answer with one JSON line.
            (vec![b'x'; 9000], true)
        } else {
            // Half-close: abandon a partial request mid-frame.
            st.half_closes += 1;
            st.sent += 1;
            let _ = conn
                .as_mut()
                .map(|c| c.stream.write_all(b"{\"id\":1,\"meth"));
            conn = None;
            continue;
        };
        st.sent += 1;
        if send_line(c, &request).is_err() {
            st.reconnects += 1;
            conn = None;
            continue;
        }
        if !expects_response {
            continue;
        }
        match read_line(c) {
            Ok(None) => {
                // EOF: the daemon closed this connection (idle cut,
                // request cap, shed). Legal — reconnect and continue.
                st.reconnects += 1;
                conn = None;
            }
            Err(()) => {
                st.violations
                    .push(format!("no response to request {id} within the timeout"));
                conn = None;
            }
            Ok(Some(line)) => match json::parse(&line) {
                Ok(v) => {
                    st.responses += 1;
                    if v.get("error").is_some() {
                        st.rpc_errors += 1;
                    }
                }
                Err(e) => st
                    .violations
                    .push(format!("unparsable response to request {id}: {e}")),
            },
        }
    }
    Ok(st)
}

fn soak_hostile(args: &Args) -> Result<(), CliError> {
    let timeout = serve::parse_timeout(args)?;
    let clients = serve::flag_u64(args, "--clients", 4)?.max(1);
    let duration_ms = serve::flag_u64(args, "--duration-ms", 5000)?;
    let seed = serve::flag_u64(args, "--seed", 1)?;
    let inst = args.value("--inst");
    let pin = args.value("--pin");
    let until = Instant::now() + Duration::from_millis(duration_ms);
    let mut root = pao_ptest::Rng::new(seed);
    let seeds: Vec<u64> = (0..clients).map(|_| root.next_u64()).collect();
    let results: Vec<Result<ClientStats, CliError>> = std::thread::scope(|scope| {
        let handles: Vec<_> = seeds
            .iter()
            .map(|&s| scope.spawn(move || hostile_client(args, timeout, s, until, inst, pin)))
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(r) => r,
                Err(_) => Err(CliError::Internal("soak client panicked".to_owned())),
            })
            .collect()
    });
    let mut total = ClientStats::default();
    for r in results {
        let st = r?;
        total.sent += st.sent;
        total.responses += st.responses;
        total.rpc_errors += st.rpc_errors;
        total.reconnects += st.reconnects;
        total.half_closes += st.half_closes;
        total.violations.extend(st.violations);
    }
    println!(
        concat!(
            "{{\"mode\":\"hostile\",\"clients\":{},\"duration_ms\":{},",
            "\"sent\":{},\"responses\":{},\"rpc_errors\":{},",
            "\"reconnects\":{},\"half_closes\":{},\"violations\":{}}}"
        ),
        clients,
        duration_ms,
        total.sent,
        total.responses,
        total.rpc_errors,
        total.reconnects,
        total.half_closes,
        total.violations.len(),
    );
    if total.violations.is_empty() {
        Ok(())
    } else {
        let mut msg = format!("{} protocol violation(s):", total.violations.len());
        for v in total.violations.iter().take(5) {
            msg.push_str("\n  ");
            msg.push_str(v);
        }
        Err(CliError::Internal(msg))
    }
}

fn soak_eco(args: &Args) -> Result<(), CliError> {
    let timeout = serve::parse_timeout(args)?;
    let count = serve::flag_u64(args, "--count", 20)?;
    let seed = serve::flag_u64(args, "--seed", 1)?;
    let insts: Vec<&str> = args
        .value("--inst")
        .ok_or_else(|| CliError::usage("soak --mode eco requires --inst NAME[,NAME…]"))?
        .split(',')
        .filter(|s| !s.is_empty())
        .collect();
    if insts.is_empty() {
        return Err(CliError::usage(
            "soak --mode eco requires --inst NAME[,NAME…]",
        ));
    }
    let mut rng = pao_ptest::Rng::new(seed);
    let mut conn = open_conn(args, timeout)?;
    let (mut applied, mut degraded, mut rejected) = (0u64, 0u64, 0u64);
    let mut died = false;
    for i in 0..count {
        let n_moves = rng.gen_range(1..=2u64);
        let moves: Vec<String> = (0..n_moves)
            .map(|_| {
                let inst = *rng.pick(&insts);
                // Deltas on the placement grid, never the (0,0) no-op.
                let mut dx = (rng.gen_range(0..=4u64) as i64 - 2) * 20;
                let dy = (rng.gen_range(0..=4u64) as i64 - 2) * 20;
                if dx == 0 && dy == 0 {
                    dx = 20;
                }
                format!("{{\"inst\":{},\"dx\":{dx},\"dy\":{dy}}}", json::quote(inst))
            })
            .collect();
        let req = format!(
            "{{\"id\":{},\"method\":\"eco_update\",\"params\":{{\"moves\":[{}]}}}}",
            i + 1,
            moves.join(","),
        );
        if send_line(&mut conn, req.as_bytes()).is_err() {
            died = true;
            break;
        }
        match read_line(&mut conn) {
            Ok(Some(line)) => match json::parse(&line) {
                Ok(v) if v.get("result").is_some() => applied += 1,
                Ok(v) => {
                    let code = v
                        .get("error")
                        .and_then(|e| e.get("code"))
                        .and_then(Value::as_i64)
                        .unwrap_or(0);
                    if code == -32004 {
                        degraded += 1;
                    } else {
                        rejected += 1;
                    }
                }
                Err(e) => {
                    return Err(CliError::Internal(format!("unparsable eco response: {e}")));
                }
            },
            // The crash gate kills the daemon mid-burst: both halves of
            // the exchange may die under us. Expected, not an error.
            Ok(None) | Err(()) => {
                died = true;
                break;
            }
        }
    }
    println!(
        "{{\"mode\":\"eco\",\"count\":{count},\"applied\":{applied},\"degraded\":{degraded},\"rejected\":{rejected},\"died\":{died}}}"
    );
    Ok(())
}

fn soak_emit(args: &Args) -> Result<(), CliError> {
    let path = args
        .value("--journal")
        .ok_or_else(|| CliError::usage("soak --mode emit requires --journal FILE"))?;
    let (journal, entries, warn) = pao_core::EcoJournal::resume(Path::new(path))
        .map_err(|e| CliError::input(format!("cannot read journal `{path}`: {e}")))?;
    drop(journal);
    if let Some(w) = warn {
        eprintln!("warning: {}", pao_core::PaoError::from(w));
    }
    let mut out = std::io::stdout().lock();
    for entry in &entries {
        let moves: Vec<String> = entry
            .moves
            .iter()
            .map(|m| match m.target {
                pao_core::EcoTarget::Abs(p) => format!(
                    "{{\"inst\":{},\"x\":{},\"y\":{}}}",
                    json::quote(&m.inst),
                    p.x,
                    p.y
                ),
                pao_core::EcoTarget::Delta(p) => format!(
                    "{{\"inst\":{},\"dx\":{},\"dy\":{}}}",
                    json::quote(&m.inst),
                    p.x,
                    p.y
                ),
            })
            .collect();
        writeln!(
            out,
            "{{\"id\":{},\"method\":\"eco_update\",\"params\":{{\"moves\":[{}]}}}}",
            entry.seq,
            moves.join(","),
        )
        .map_err(|e| CliError::input(format!("cannot write stdout: {e}")))?;
    }
    Ok(())
}

/// `pao soak (--socket PATH | --tcp ADDR) --mode hostile|eco|emit …`
pub fn cmd_soak(args: &Args) -> Result<(), CliError> {
    match args.value("--mode") {
        Some("hostile") => soak_hostile(args),
        Some("eco") => soak_eco(args),
        Some("emit") => soak_emit(args),
        _ => Err(CliError::usage("soak requires --mode hostile|eco|emit")),
    }
}
