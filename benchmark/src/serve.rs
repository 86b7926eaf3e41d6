//! `serve_scan` / `serve_family` / `serve_small`: the TCP daemon
//! (`NetServer` + `BlastRunner`) under generated traffic, every answer
//! checked byte for byte against an in-process oracle.

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use parblast_core::net::{
    encode_frame, BatchRunner, BlastRunner, Frame, FrameReader, NetClient, NetServer, Response,
    ResultStatus, RunnerError, RunnerOutput, ServerConfig, ServerHandle, StatsSnapshot,
};
use parblast_core::serve::{serve_batched, Priority};

use crate::metrics::{Metrics, Outcome};
use crate::replay::{self, Replay};
use crate::stage::{self, Fragments, SchemeKind, WORKERS};
use crate::trace::Recorder;
use crate::util::{
    cpu_seconds, mean, median, peak_rss_mb, percentile, reset_peak_rss, subseed, Rng, RssSampler,
};
use crate::{gen, probes, Ctx};

/// Closed loop: connections × pipelined requests each. Two connections,
/// one per core; 2 × 8 keeps one full batch queued behind the one that is
/// executing, so every batch is full. (At 2 × 4 the daemon drifts between
/// batches of 4 and of 8 with timing, and throughput with it.)
const CONNECTIONS: usize = 2;
const DEPTH: usize = 8;
/// Open-loop rate steps of the traced run, requests/s.
const OPEN_RATES: [f64; 2] = [8.0, 16.0];
/// Latency limit on the open-loop p95, and the most requests that may
/// still be unanswered when a step's last request falls due.
const SLO_P95_MS: f64 = 500.0;
const SLO_BACKLOG: usize = 8;
/// Batches the staged replay walks through.
const REPLAYED: usize = 8;

/// The daemon configuration every workload and probe uses.
pub fn server_config() -> ServerConfig {
    ServerConfig {
        shards: 1,
        queue_capacity: 256,
        max_batch: 8,
        quota: None,
        ..Default::default()
    }
}

pub struct Spec {
    pub scheme: SchemeKind,
    pub residues: u64,
    pub fragments: u32,
    /// Plant homolog families and query them (else: scan-miss queries).
    pub families: bool,
    pub pool: usize,
    /// The traced run adds open-loop steps at `OPEN_RATES`.
    pub open_steps: bool,
}

/// Scan-bound: big database, queries that hit nothing.
pub const SCAN: Spec = Spec {
    scheme: SchemeKind::Ceft,
    residues: 32 << 20,
    fragments: 8,
    families: false,
    pool: 64,
    open_steps: false,
};

/// Extension- and report-bound: every query has ~60 true homologs in a
/// database that is mostly planted families.
pub const FAMILY: Spec = Spec {
    scheme: SchemeKind::Pvfs,
    residues: 2 << 20,
    fragments: 8,
    families: true,
    pool: 64,
    open_steps: true,
};

/// Fixed-cost-bound: a database so small that per-batch overheads win.
/// Three fragments, so that the two workers do not finish in the same
/// microsecond: `shims/crossbeam`'s `Sender::drop` notifies without the
/// queue lock, and when the last two results of a batch arrive together
/// the master of `run_batch` can miss the disconnect and wait for ever —
/// about once in 40 000 batches with an even split, which at 60 batches a
/// second this workload would meet every few runs. See README.md, Findings.
pub const SMALL: Spec = Spec {
    scheme: SchemeKind::Original,
    residues: 512 << 10,
    fragments: 3,
    families: false,
    pool: 128,
    open_steps: false,
};

/// One `run_batch` as seen from outside the runner.
struct BatchNote {
    start: Instant,
    end: Instant,
    queries: Vec<Vec<u8>>,
    fetch_s: f64,
    compute_s: f64,
}

/// `BlastRunner` behind a wrapper that, while switched on, spans every
/// `run_batch` and keeps what went in.
struct SpanRunner {
    inner: BlastRunner,
    rec: Arc<Recorder>,
    on: AtomicBool,
    notes: Mutex<Vec<BatchNote>>,
}

impl BatchRunner for SpanRunner {
    fn run_batch(&self, queries: &[Vec<u8>]) -> Result<RunnerOutput, RunnerError> {
        if !self.on.load(Ordering::Relaxed) {
            return self.inner.run_batch(queries);
        }
        let start = Instant::now();
        let out = self.inner.run_batch(queries)?;
        let end = Instant::now();
        let mut notes = self.notes.lock().expect("no runner thread panics");
        self.rec
            .record("mpiblast.run_batch", start, end, None, notes.len() as u64);
        notes.push(BatchNote {
            start,
            end,
            queries: queries.to_vec(),
            fetch_s: out.scan_s,
            compute_s: out.search_s,
        });
        Ok(out)
    }
}

struct Daemon {
    handle: ServerHandle,
    runner: Arc<SpanRunner>,
    fragments: Fragments,
    format_s: f64,
}

impl Daemon {
    fn stop(self) -> StatsSnapshot {
        self.handle.drain();
        self.handle.join()
    }
}

/// One answered (or refused) request.
struct Sample {
    /// When it was sent (closed loop) or due (open loop).
    from: Instant,
    done: Instant,
    query: usize,
    ok: bool,
}

fn check(resp: &Response, expect: &[u8]) -> bool {
    matches!(resp, Response::Ok(payload) if payload == expect)
}

/// One closed-loop connection: keep `DEPTH` requests in flight until
/// `until`, then collect what is outstanding.
fn closed_connection(
    addr: &str,
    pool: &[Vec<u8>],
    oracle: &[Vec<u8>],
    until: Instant,
    seed: u64,
) -> io::Result<Vec<Sample>> {
    let mut rng = Rng::new(seed);
    let mut client = NetClient::connect(addr)?;
    let mut inflight: HashMap<u64, (Instant, usize)> = HashMap::new();
    let mut samples = Vec::new();
    loop {
        while inflight.len() < DEPTH && Instant::now() < until {
            let query = rng.below(pool.len());
            let sent = Instant::now();
            inflight.insert(client.submit(&pool[query])?, (sent, query));
        }
        if inflight.is_empty() {
            return Ok(samples);
        }
        let (id, resp) = client
            .recv_response()
            .map_err(io::Error::other)?
            .ok_or_else(|| io::Error::other("daemon closed the connection mid-window"))?;
        let (from, query) = inflight.remove(&id).expect("answer to an outstanding id");
        samples.push(Sample {
            from,
            done: Instant::now(),
            query,
            ok: check(&resp, &oracle[query]),
        });
    }
}

fn closed_loop(
    addr: &str,
    pool: &[Vec<u8>],
    oracle: &[Vec<u8>],
    window: Duration,
    seed: u64,
) -> io::Result<Phase> {
    let until = Instant::now() + window;
    std::thread::scope(|s| {
        let conns: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                s.spawn(move || {
                    closed_connection(addr, pool, oracle, until, subseed(seed, 8 + c as u64))
                })
            })
            .collect();
        let mut samples = Vec::new();
        for c in conns {
            samples.extend(c.join().expect("connection thread")?);
        }
        Ok(Phase {
            samples,
            late_ms_max: 0.0,
            backlog: 0,
        })
    })
}

/// One phase of traffic.
struct Phase {
    samples: Vec<Sample>,
    /// Open loop: the latest the generator sent a request after it was due.
    late_ms_max: f64,
    /// Open loop: requests unanswered when the last one fell due (that
    /// one included).
    backlog: usize,
}

/// Open loop on one raw connection: a sender thread submits on the seeded
/// schedule whatever the daemon does, a receiver thread reads answers off
/// a clone of the socket. Latency runs from the due time, so a stalled
/// daemon (or generator) is charged for the wait it imposes.
fn open_loop(
    addr: &str,
    pool: &[Vec<u8>],
    oracle: &[Vec<u8>],
    rate: f64,
    window: Duration,
    seed: u64,
) -> io::Result<Phase> {
    let mut rng = Rng::new(subseed(seed, 10));
    let plan: Vec<(Duration, usize)> = gen::arrival_schedule(rate, window, seed)
        .into_iter()
        .map(|due| (due, rng.below(pool.len())))
        .collect();
    let mut tx = TcpStream::connect(addr)?;
    tx.set_nodelay(true)?;
    let mut rx = tx.try_clone()?;
    let t0 = Instant::now();
    let plan = &plan;
    std::thread::scope(|s| {
        let sender = s.spawn(move || -> io::Result<f64> {
            let mut late_ms_max = 0.0f64;
            for (id, (due, query)) in plan.iter().enumerate() {
                let frame = encode_frame(&Frame::Submit {
                    id: id as u64,
                    tenant: 0,
                    priority: Priority::Normal,
                    deadline_us: 0,
                    query: pool[*query].clone(),
                });
                if let Some(wait) = due.checked_sub(t0.elapsed()) {
                    std::thread::sleep(wait);
                }
                late_ms_max = late_ms_max.max((t0.elapsed() - *due).as_secs_f64() * 1e3);
                tx.write_all(&frame)?;
            }
            Ok(late_ms_max)
        });
        let receiver = s.spawn(move || -> io::Result<(Vec<Sample>, usize)> {
            let last_due = plan.last().map_or(Duration::ZERO, |p| p.0);
            let mut reader = FrameReader::new();
            let mut buf = vec![0u8; 64 << 10];
            let mut samples = Vec::with_capacity(plan.len());
            let mut answered_in_time = 0usize;
            while samples.len() < plan.len() {
                let frame = match reader.next_frame().map_err(io::Error::other)? {
                    Some(f) => f,
                    None => {
                        let n = rx.read(&mut buf)?;
                        if n == 0 {
                            return Err(io::Error::other("daemon closed the connection"));
                        }
                        reader.feed(&buf[..n]);
                        continue;
                    }
                };
                let (id, ok) = match frame {
                    Frame::Result {
                        id,
                        status,
                        payload,
                    } => {
                        let query = plan[id as usize].1;
                        (id, status == ResultStatus::Ok && payload == oracle[query])
                    }
                    Frame::Shed { id, .. } => (id, false),
                    _ => continue,
                };
                let (due, query) = plan[id as usize];
                if t0.elapsed() <= last_due {
                    answered_in_time += 1;
                }
                samples.push(Sample {
                    from: t0 + due,
                    done: Instant::now(),
                    query,
                    ok,
                });
            }
            Ok((samples, plan.len() - answered_in_time))
        });
        let late_ms_max = sender.join().expect("sender thread")?;
        let (samples, backlog) = receiver.join().expect("receiver thread")?;
        Ok(Phase {
            samples,
            late_ms_max,
            backlog,
        })
    })
}

fn latencies_ms(samples: &[Sample]) -> Vec<f64> {
    samples
        .iter()
        .map(|s| (s.done - s.from).as_secs_f64() * 1e3)
        .collect()
}

/// Both ledger identities the daemon promises at drain.
fn ledger_ok(s: &StatsSnapshot) -> bool {
    let shed = s.shed_queue_full + s.shed_quota + s.shed_draining;
    s.submits == s.accepted + shed && s.accepted == s.served + s.expired + s.cancelled
}

pub fn run(spec: &Spec, ctx: &Ctx) -> io::Result<Outcome> {
    let mut db = gen::random_db(spec.residues, ctx.seed);
    let pool = if spec.families {
        gen::plant_families(&mut db, 32, 60, spec.pool, ctx.seed)
    } else {
        gen::scan_pool(spec.pool, ctx.seed)
    };
    let stats = db.stats();
    let rec = Arc::new(Recorder::new());
    ctx.phase("generate");

    let (setup_s, daemon) = ctx.setups(
        |base| {
            let stage::Staged {
                scheme,
                fragments,
                format_s,
            } = stage::setup(spec.scheme, base, &db, spec.fragments)?;
            let job = stage::job(scheme, &fragments, stats, WORKERS, true);
            let runner = Arc::new(SpanRunner {
                inner: BlastRunner::new(job, stage::total_bytes(&fragments)),
                rec: Arc::clone(&rec),
                on: AtomicBool::new(false),
                notes: Mutex::new(Vec::new()),
            });
            let handle = NetServer::start("127.0.0.1:0", server_config(), runner.clone())?;
            Ok(Daemon {
                handle,
                runner,
                fragments,
                format_s,
            })
        },
        |d| {
            d.stop();
        },
    )?;
    drop(db);
    ctx.phase("set up");

    // Oracle and warm-up in one: the whole pool through in-process
    // `serve_batched` on a separately staged original store.
    let oracle: Vec<Vec<u8>> = {
        let local = stage::load(
            SchemeKind::Original,
            &ctx.dir.join("oracle"),
            &daemon.fragments,
        )?;
        let job = stage::job(local, &daemon.fragments, stats, WORKERS, true);
        serve_batched(&job, &pool, server_config().max_batch)?
            .per_query
            .into_iter()
            .map(String::into_bytes)
            .collect()
    };

    ctx.phase("oracle and warm-up");

    let addr = daemon.handle.addr().to_string();
    let mut m = Metrics::default();
    reset_peak_rss();
    let rss = ctx.traced.then(RssSampler::start);
    let cpu0 = cpu_seconds();
    let t0 = Instant::now();
    // A traced run switches the span wrapper on for the second half of
    // the window; the rate difference between the halves is its overhead.
    let half = t0 + ctx.window / 2;
    let phase = std::thread::scope(|s| {
        if ctx.traced {
            s.spawn(|| {
                std::thread::sleep(half - Instant::now());
                daemon.runner.on.store(true, Ordering::Relaxed);
            });
        }
        closed_loop(&addr, &pool, &oracle, ctx.window, ctx.seed)
    })?;
    let cpu = cpu_seconds() - cpu0;
    let end = t0 + ctx.window;
    let samples = &phase.samples;
    let answered_in = |from: Instant, to: Instant| {
        samples
            .iter()
            .filter(|s| s.done >= from && s.done < to)
            .count()
    };
    let mut attempted = samples.len() as u64;
    let mut failed = samples.iter().filter(|s| !s.ok).count() as u64;
    let mut ms = latencies_ms(samples);
    m.set("setup_s", setup_s);
    m.set("query_p50_ms", median(&mut ms));
    let last_answer = phase_end(&phase);
    let answered_s = (last_answer - t0).as_secs_f64();
    m.set("served_qps", (attempted - failed) as f64 / answered_s);
    m.set("cpu_ms_per_query", cpu * 1e3 / samples.len() as f64);
    let rss_mb = rss.map(RssSampler::stop);
    eprintln!(
        "window: {attempted} sent, {} ok, {failed} failed",
        attempted - failed
    );

    // Open-loop steps ride on the same daemon, spanned, after the window.
    let mut steps: Vec<(f64, Phase)> = Vec::new();
    if ctx.traced && spec.open_steps {
        for (i, rate) in OPEN_RATES.into_iter().enumerate() {
            let seed = subseed(ctx.seed, 11 + i as u64);
            let step = open_loop(&addr, &pool, &oracle, rate, ctx.window / 2, seed)?;
            let bad = step.samples.iter().filter(|s| !s.ok).count() as u64;
            eprintln!(
                "open loop at {rate} req/s: {} sent, {} ok, {bad} failed",
                step.samples.len(),
                step.samples.len() as u64 - bad
            );
            attempted += step.samples.len() as u64;
            failed += bad;
            steps.push((rate, step));
        }
    }

    let Daemon {
        handle,
        runner,
        fragments,
        format_s,
    } = daemon;
    handle.drain();
    let snapshot = handle.join();
    if !ledger_ok(&snapshot) || snapshot.submits != attempted {
        eprintln!("ledger: identities do not hold at drain: {snapshot:?}");
        failed += 1;
    }

    ctx.phase("window and drain");

    if ctx.traced {
        m.set("query_p95_ms", percentile(&mut ms, 95.0));
        m.set("rss_mb", rss_mb.expect("a traced run samples its RSS"));
        m.set("peak_rss_mb", peak_rss_mb());
        let half_s = ctx.window.as_secs_f64() / 2.0;
        if let Some(f) = replay::overhead_frac(
            (answered_in(t0, half), half_s),
            (answered_in(half, end), half_s),
        ) {
            m.set("trace.overhead_frac", f);
        }
        m.set("net.submits", snapshot.submits as f64);
        m.set(
            "net.sheds",
            (snapshot.shed_queue_full + snapshot.shed_quota + snapshot.shed_draining) as f64,
        );
        m.set("net.expired", snapshot.expired as f64);
        m.set("net.ledger_ok", ledger_ok(&snapshot) as u8 as f64);
        m.set("blast.kernel_passes", snapshot.kernel_passes as f64);
        m.set("blast.passes_saved", snapshot.passes_saved as f64);
        if let [(_, lo), (_, hi)] = &steps[..] {
            let pct = |p: &Phase, q: f64| percentile(&mut latencies_ms(&p.samples), q);
            m.set("serve.open_lo_p50_ms", pct(lo, 50.0));
            m.set("serve.open_lo_p95_ms", pct(lo, 95.0));
            m.set("serve.open_hi_p95_ms", pct(hi, 95.0));
            m.set("serve.gen_late_ms_max", lo.late_ms_max.max(hi.late_ms_max));
            // The highest step that, like every step below it, kept its
            // p95 within the limit and left no backlog behind.
            let slo = steps
                .iter()
                .take_while(|(_, p)| pct(p, 95.0) <= SLO_P95_MS && p.backlog <= SLO_BACKLOG)
                .last()
                .map_or(0.0, |(rate, _)| *rate);
            m.set("serve.slo_rate_qps", slo);
        }

        let notes = runner.notes.lock().expect("daemon has stopped");
        let window_notes: Vec<&BatchNote> =
            notes.iter().filter(|n| n.start < last_answer).collect();
        let mut batch_ms: Vec<f64> = window_notes
            .iter()
            .map(|n| (n.end - n.start).as_secs_f64() * 1e3)
            .collect();
        let noted: usize = window_notes.iter().map(|n| n.queries.len()).sum();
        m.set("serve.batches", window_notes.len() as f64);
        m.set("serve.mean_batch", noted as f64 / window_notes.len() as f64);
        let busy_s = batch_ms.iter().sum::<f64>() / 1e3;
        let spanned_s = (last_answer - half).as_secs_f64();
        m.set("serve.exec_busy_frac", busy_s / spanned_s);
        m.set("mpiblast.run_batch_ms_p50", median(&mut batch_ms));
        let fetch = mean(&window_notes.iter().map(|n| n.fetch_s).collect::<Vec<_>>());
        let stall = mean(
            &window_notes
                .iter()
                .map(|n| ((n.end - n.start).as_secs_f64() - n.compute_s).max(0.0))
                .collect::<Vec<_>>(),
        );
        m.set("mpiblast.io_fetch_s", fetch);
        m.set("mpiblast.io_stall_s", stall);
        m.set("mpiblast.io_hidden_frac", 1.0 - stall / fetch);
        let mut waits = queue_waits_ms(samples, &window_notes, &pool);
        m.set("serve.wait_ms_p50", median(&mut waits));
        m.set("serve.wait_ms_p95", percentile(&mut waits, 95.0));

        let payload_len = oracle.iter().map(Vec::len).sum::<usize>() / oracle.len();
        let typical = &window_notes[window_notes.len() / 2].queries;
        let format_mbps = stage::total_bytes(&fragments) as f64 / 1e6 / format_s;
        m.set("seqdb.format_mbps", format_mbps);
        probes::run(
            &ctx.dir,
            spec.scheme,
            &fragments,
            typical,
            payload_len,
            true,
            &mut m,
        )?;

        // Staged replay of evenly spaced batches of the spanned half, and
        // the same batches through a one-worker, no-prefetch `run_batch`,
        // where nothing overlaps and the stages simply add up.
        let by_bytes: HashMap<&[u8], usize> = pool
            .iter()
            .enumerate()
            .map(|(i, q)| (q.as_slice(), i))
            .collect();
        let job = &runner.inner.job;
        let replay = Replay {
            rec: &rec,
            scheme: &job.scheme,
            fragments: &job.fragments,
            db: stats,
            daemon: true,
        };
        let serial = stage::job(job.scheme.clone(), &fragments, stats, 1, false);
        let picked = REPLAYED.min(window_notes.len());
        let (mut payloads, mut unpacks, mut serial_s) = (Vec::new(), 0, 0.0);
        for k in 0..picked {
            let note = window_notes[k * window_notes.len() / picked];
            let (out, n) = replay.run(k as u64, &note.queries)?;
            for (q, payload) in note.queries.iter().zip(&out) {
                attempted += 1;
                if *payload != oracle[by_bytes[q.as_slice()]] {
                    failed += 1;
                    eprintln!("replay: payload differs from the oracle");
                }
            }
            payloads.extend(out);
            unpacks += n;
            serial_s += serial.run_batch(&note.queries)?.wall_s / picked as f64;
        }
        replay::ledger(&rec, &payloads, unpacks, stats.residues, serial_s, &mut m);
        rec.write_json(&ctx.trace_path())?;
        ctx.phase("probes and replay");
    }

    Ok(Outcome {
        attempted,
        failed,
        metrics: m,
    })
}

/// When the last answer of a phase arrived.
fn phase_end(phase: &Phase) -> Instant {
    phase
        .samples
        .iter()
        .map(|s| s.done)
        .max()
        .expect("a phase has samples")
}

/// Queue wait of every request a noted batch ran: from send (or due) to
/// the start of that batch. A batch is matched to its requests by query
/// bytes, first sent first, among batches that started after the request
/// left and ended before its answer arrived.
fn queue_waits_ms(samples: &[Sample], notes: &[&BatchNote], pool: &[Vec<u8>]) -> Vec<f64> {
    let mut order: Vec<&Sample> = samples.iter().collect();
    order.sort_by_key(|s| s.from);
    let mut claimed: Vec<Vec<bool>> = notes.iter().map(|n| vec![false; n.queries.len()]).collect();
    let mut waits = Vec::new();
    for s in order {
        'notes: for (n, note) in notes.iter().enumerate() {
            if note.start < s.from || note.end > s.done {
                continue;
            }
            for (slot, q) in note.queries.iter().enumerate() {
                if !claimed[n][slot] && *q == pool[s.query] {
                    claimed[n][slot] = true;
                    waits.push((note.start - s.from).as_secs_f64() * 1e3);
                    break 'notes;
                }
            }
        }
    }
    waits
}
