//! Ceiling probes and single-layer probes of the traced run: each times
//! calls into one layer's public functions on the workload's own data.

use std::hint::black_box;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use parblast_core::blast::{BatchedNtLookup, DbStats};
use parblast_core::net::{EchoRunner, Frame, NetClient, NetServer, ResultStatus};
use parblast_core::seqdb::alphabet::reverse_complement;
use parblast_core::seqdb::{PackedVolume, SeqType, VolumeWriter};
use parblast_core::serve::{AdmissionQueue, Query};
use parblast_core::simcore::SimTime;

use crate::metrics::Metrics;
use crate::replay::{codec_round_trip, Kernel};
use crate::stage::{self, Fragments, SchemeKind};
use crate::util::{median, since};

/// Streaming-read buffer. This box: L2 2 MiB per core, L3 260 MiB shared,
/// so the buffer is beyond L2 but the figure is an L3-or-memory rate.
const MEM_BUF_BYTES: usize = 64 << 20;

/// The unified caches of cpu0 as sysfs names them, e.g. `L2 2048K, L3 266240K`.
fn cache_sizes() -> String {
    let base = Path::new("/sys/devices/system/cpu/cpu0/cache");
    let read = |index: usize, file: &str| {
        std::fs::read_to_string(base.join(format!("index{index}")).join(file))
            .map(|s| s.trim().to_string())
    };
    let found: Vec<String> = (0..8)
        .filter(|&i| read(i, "type").is_ok_and(|t| t == "Unified"))
        .filter_map(|i| {
            Some(format!(
                "L{} {}",
                read(i, "level").ok()?,
                read(i, "size").ok()?
            ))
        })
        .collect();
    if found.is_empty() {
        "cache sizes unknown".to_string()
    } else {
        found.join(", ")
    }
}

fn mb_per_s(bytes: u64, secs: f64) -> f64 {
    bytes as f64 / 1e6 / secs
}

/// Best of five summing passes over a 64 MiB buffer, in GB/s.
fn mem_read_gbps() -> f64 {
    let buf: Vec<u64> = (0..(MEM_BUF_BYTES / 8) as u64).collect();
    let best = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            let sum = black_box(&buf).iter().fold(0u64, |a, &x| a.wrapping_add(x));
            black_box(sum);
            since(t0)
        })
        .fold(f64::INFINITY, f64::min);
    MEM_BUF_BYTES as f64 / 1e9 / best
}

fn files_under(dir: &Path, out: &mut Vec<std::path::PathBuf>) -> io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            files_under(&path, out)?;
        } else {
            out.push(path);
        }
    }
    Ok(())
}

/// `std::fs::read` of every staged file under `dir` (page-cache reads in
/// this sandbox), in MB/s.
fn file_read_mbps(dir: &Path) -> io::Result<f64> {
    let mut files = Vec::new();
    files_under(dir, &mut files)?;
    let t0 = Instant::now();
    let mut bytes = 0u64;
    for f in &files {
        bytes += black_box(std::fs::read(f)?).len() as u64;
    }
    Ok(mb_per_s(bytes, since(t0)))
}

/// Median one-byte ping-pong over a std-only loopback TCP echo.
fn loopback_rtt_us() -> io::Result<f64> {
    const PINGS: usize = 2000;
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    let echo = std::thread::spawn(move || -> io::Result<()> {
        let (mut s, _) = listener.accept()?;
        s.set_nodelay(true)?;
        let mut b = [0u8; 1];
        while s.read(&mut b)? == 1 {
            s.write_all(&b)?;
        }
        Ok(())
    });
    let mut s = TcpStream::connect(addr)?;
    s.set_nodelay(true)?;
    let mut rtts = Vec::with_capacity(PINGS);
    let mut b = [7u8; 1];
    for _ in 0..PINGS {
        let t0 = Instant::now();
        s.write_all(&b)?;
        s.read_exact(&mut b)?;
        rtts.push(since(t0) * 1e6);
    }
    drop(s);
    echo.join().expect("echo thread")?;
    Ok(median(&mut rtts))
}

/// Stats round trip and a whole `query` against a zero-delay echo daemon
/// whose answer is as long as this workload's mean result payload: the
/// cost of `net` + `serve` with no search behind them.
fn echo_daemon(payload_len: usize, m: &mut Metrics) -> io::Result<()> {
    const CALLS: usize = 1000;
    let handle = NetServer::start(
        "127.0.0.1:0",
        crate::serve::server_config(),
        Arc::new(EchoRunner::default()),
    )?;
    let mut client = NetClient::connect(&handle.addr().to_string())?;
    let query = vec![1u8; payload_len.max(crate::gen::QUERY_LEN)];
    let mut rtt = Vec::with_capacity(CALLS);
    let mut echo = Vec::with_capacity(CALLS);
    for _ in 0..CALLS {
        let t0 = Instant::now();
        client.stats().map_err(io::Error::other)?;
        rtt.push(since(t0) * 1e6);
        let t0 = Instant::now();
        let answer = client.query(&query).map_err(io::Error::other)?;
        echo.push(since(t0) * 1e6);
        assert_eq!(answer.len(), query.len() + 5, "echo payload length");
    }
    drop(client);
    handle.drain();
    handle.join();
    m.set("net.rtt_us", median(&mut rtt));
    m.set("net.echo_query_us", median(&mut echo));
    Ok(())
}

/// `encode_frame` + `FrameReader` of a `Result` frame, per KiB of payload.
fn codec_ns_per_kb(payload_len: usize) -> f64 {
    const REPS: usize = 2000;
    let frame = Frame::Result {
        id: 1,
        status: ResultStatus::Ok,
        payload: vec![b'x'; payload_len.max(1)],
    };
    let t0 = Instant::now();
    for _ in 0..REPS {
        black_box(codec_round_trip(black_box(&frame)));
    }
    since(t0) * 1e9 / REPS as f64 / (payload_len.max(1) as f64 / 1024.0)
}

/// Direct `AdmissionQueue` calls: ns per query to admit a batch of
/// `batch` and take it back.
fn admit_take_ns(batch: usize) -> f64 {
    const REPS: usize = 20_000;
    let mut queue = AdmissionQueue::new(crate::serve::server_config().queue_capacity);
    let now = SimTime::from_nanos(0);
    let t0 = Instant::now();
    for r in 0..REPS {
        for i in 0..batch {
            queue
                .offer(Query::new((r * batch + i) as u64, now))
                .expect("queue has room");
        }
        black_box(queue.take_batch(batch, now));
    }
    since(t0) * 1e9 / (REPS * batch) as f64
}

/// Unthrottled `put` and whole-object read of the workload's fragments
/// through each of the three stores; `own` is the workload's.
fn pio_rates(
    dir: &Path,
    own: SchemeKind,
    fragments: &Fragments,
    m: &mut Metrics,
) -> io::Result<()> {
    let bytes = stage::total_bytes(fragments);
    let mut own_read_mbps = 0.0;
    for kind in SchemeKind::ALL {
        let base = dir.join(kind.tag());
        let t0 = Instant::now();
        let scheme = stage::load(kind, &base, fragments)?;
        let put_s = since(t0);
        let t0 = Instant::now();
        for (name, _) in fragments {
            let (mut reader, _) = scheme.open_for_worker(0, name)?;
            let mut buf = vec![0u8; reader.len()? as usize];
            reader.read_at(0, &mut buf)?;
            black_box(&buf);
        }
        let read_s = since(t0);
        let (put, read) = match kind {
            SchemeKind::Original => ("pio.put_mbps.local", "pio.read_mbps.local"),
            SchemeKind::Pvfs => ("pio.put_mbps.pvfs", "pio.read_mbps.pvfs"),
            SchemeKind::Ceft => ("pio.put_mbps.ceft", "pio.read_mbps.ceft"),
        };
        m.set(put, mb_per_s(bytes, put_s));
        m.set(read, mb_per_s(bytes, read_s));
        if kind == own {
            own_read_mbps = mb_per_s(bytes, read_s);
        }
    }
    let file_mbps = file_read_mbps(&dir.join(SchemeKind::Pvfs.tag()))?;
    m.set("ceiling.file_read_mbps", file_mbps);
    m.set("pio.read_frac_of_file", own_read_mbps / file_mbps);
    std::fs::remove_dir_all(dir)
}

/// `PackedVolume::read_from` on in-memory fragment bytes.
fn decode_mbps(fragments: &Fragments) -> io::Result<f64> {
    let t0 = Instant::now();
    for (_, bytes) in fragments {
        black_box(PackedVolume::read_from(&mut &bytes[..])?);
    }
    Ok(mb_per_s(stage::total_bytes(fragments), since(t0)))
}

/// `BatchedNtLookup::build` over both strands of a batch of queries.
fn lookup_build_us(queries: &[Vec<u8>]) -> f64 {
    const REPS: usize = 20;
    let minus: Vec<Vec<u8>> = queries.iter().map(|q| reverse_complement(q)).collect();
    let contexts: Vec<&[u8]> = queries
        .iter()
        .zip(&minus)
        .flat_map(|(p, m)| [p.as_slice(), m.as_slice()])
        .collect();
    let word = parblast_core::blast::SearchParams::blastn().word_size;
    let t0 = Instant::now();
    for _ in 0..REPS {
        black_box(BatchedNtLookup::build(black_box(&contexts), word));
    }
    since(t0) * 1e6 / REPS as f64
}

/// What one search call costs whatever the database size (query masking,
/// lookup build, table allocation): a typical batch against a volume of
/// one 64-residue sequence.
fn search_fixed_us(dir: &Path, batch: &[Vec<u8>], fused: bool) -> io::Result<f64> {
    const REPS: usize = 50;
    let path = dir.join("one-sequence.pdb");
    let mut w = VolumeWriter::create(&path, SeqType::Nucleotide)?;
    let codes: Vec<u8> = (0..64u8).map(|i| i & 3).collect();
    w.add_codes("gi|1|probe|P1 one sequence", &codes)?;
    w.finish()?;
    let volume = PackedVolume::read_from(&mut &std::fs::read(&path)?[..])?;
    let db = DbStats {
        residues: 1 << 20,
        nseq: 1 << 10,
    };
    let mut kernel = Kernel::new(fused, db);
    let t0 = Instant::now();
    for _ in 0..REPS {
        black_box(kernel.search(black_box(batch), &volume));
    }
    Ok(since(t0) * 1e6 / REPS as f64)
}

/// Every probe that needs no measured window. `batch` is a typical batch
/// of this workload's queries, `payload_len` its mean result size, `fused`
/// whether the workload runs the fused batch kernel.
pub fn run(
    dir: &Path,
    kind: SchemeKind,
    fragments: &Fragments,
    batch: &[Vec<u8>],
    payload_len: usize,
    fused: bool,
    m: &mut Metrics,
) -> io::Result<()> {
    eprintln!(
        "probes: memory buffer {} MiB ({}); echo payload {payload_len} B",
        MEM_BUF_BYTES >> 20,
        cache_sizes()
    );
    m.set("ceiling.mem_read_gbps", mem_read_gbps());
    m.set("ceiling.loopback_rtt_us", loopback_rtt_us()?);
    echo_daemon(payload_len, m)?;
    m.set("net.codec_ns_per_kb", codec_ns_per_kb(payload_len));
    m.set("serve.admit_take_ns", admit_take_ns(batch.len()));
    pio_rates(&dir.join("probe"), kind, fragments, m)?;
    m.set("seqdb.decode_mbps", decode_mbps(fragments)?);
    m.set("blast.lookup_build_us", lookup_build_us(batch));
    m.set("blast.search_fixed_us", search_fixed_us(dir, batch, fused)?);
    Ok(())
}
