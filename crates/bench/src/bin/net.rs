//! Networked serving tier under open-loop Poisson load: N client threads
//! across T tenants hammer a thread-per-core daemon, with one over-quota
//! "hog" tenant that must be the only one shed at saturation. Ends with a
//! graceful drain and asserts zero result loss. Prints the table and
//! writes `BENCH_net.json` for CI.

use std::sync::Arc;
use std::time::{Duration, Instant};

use parblast_bench::{arg_u64, arg_value, open_loop, print_table};
use parblast_core::hwsim::poisson_arrivals;
use parblast_core::net::{
    ClientConfig, ClientError, EchoRunner, NetClient, NetServer, QuotaConfig, ServerConfig,
    ShedReason,
};
use parblast_core::pvfs::RetryPolicy;
use parblast_core::simcore::{LogHistogram, SimRng};

/// What one client thread observed.
#[derive(Default)]
struct ClientReport {
    tenant: u32,
    offered: u64,
    ok: u64,
    shed_quota: u64,
    shed_draining: u64,
    shed_other: u64,
    io_stopped: u64,
    latencies_us: Vec<u64>,
}

struct Config {
    shards: usize,
    max_batch: usize,
    queue_capacity: usize,
    clients: usize,
    tenants: u32,
    quota_qps: f64,
    hog_factor: f64,
    polite_factor: f64,
    batch_delay: Duration,
    duration: Duration,
    drain_after: Duration,
    seed: u64,
}

fn run_client(
    addr: &str,
    tenant: u32,
    rate_qps: f64,
    duration: Duration,
    stream: u64,
) -> ClientReport {
    let n = (rate_qps * duration.as_secs_f64()).ceil() as usize;
    let arrivals = poisson_arrivals(rate_qps, n, &mut SimRng::new(stream));
    let mut report = ClientReport {
        tenant,
        offered: n as u64,
        ..Default::default()
    };
    let client_cfg = ClientConfig {
        tenant,
        retry: RetryPolicy::disabled(),
        ..Default::default()
    };
    let mut client = match NetClient::connect_with(addr, client_cfg) {
        Ok(c) => c,
        Err(_) => {
            report.io_stopped = 1;
            return report;
        }
    };
    open_loop(Instant::now(), &arrivals, |i, _| {
        let payload = format!("t{tenant}s{stream}q{i}");
        let t0 = Instant::now();
        match client.query(payload.as_bytes()) {
            Ok(bytes) => {
                assert_eq!(
                    bytes,
                    EchoRunner::expected(payload.as_bytes()),
                    "daemon returned wrong bytes for tenant {tenant} query {i}"
                );
                report.ok += 1;
                report.latencies_us.push(t0.elapsed().as_micros() as u64);
            }
            Err(ClientError::Shed {
                reason: ShedReason::QuotaExceeded,
                retry_after_us,
            }) => {
                assert!(
                    retry_after_us > 0,
                    "quota shed must carry a retry-after hint"
                );
                report.shed_quota += 1;
            }
            Err(ClientError::Shed {
                reason: ShedReason::Draining,
                ..
            }) => report.shed_draining += 1,
            Err(ClientError::Shed { .. }) => report.shed_other += 1,
            // The daemon drained and closed the socket: stop offering load.
            Err(ClientError::Io(_)) => {
                report.io_stopped = 1;
                return false;
            }
            Err(e) => panic!("unexpected client error: {e:?}"),
        }
        true
    });
    report
}

#[allow(clippy::too_many_arguments)]
fn json(
    cfg: &Config,
    tenant_rows: &[(u32, f64, u64, u64, u64)],
    achieved_qps: f64,
    pct: &parblast_core::simcore::Percentiles,
    shed_rate: f64,
    stats: &parblast_core::net::StatsSnapshot,
    capacity_qps: f64,
    offered_qps: f64,
) -> String {
    let tenants: Vec<String> = tenant_rows
        .iter()
        .map(|(t, rate, ok, shed, offered)| {
            format!(
                "    {{\"tenant\":{t},\"offered_qps\":{rate:.1},\"offered\":{offered},\
                 \"ok\":{ok},\"shed_quota\":{shed}}}"
            )
        })
        .collect();
    let shards: Vec<String> = stats
        .per_shard_served
        .iter()
        .map(|s| s.to_string())
        .collect();
    format!(
        "{{\n  \"experiment\": \"net\",\n  \"shards\": {},\n  \"clients\": {},\n  \
         \"tenants\": {},\n  \"quota_qps\": {:.1},\n  \"hog_factor\": {:.1},\n  \
         \"capacity_qps\": {:.1},\n  \"offered_qps\": {:.1},\n  \
         \"duration_s\": {:.2},\n  \"achieved_qps\": {:.1},\n  \
         \"latency_us\": {{\"p50\":{:.0},\"p95\":{:.0},\"p99\":{:.0}}},\n  \
         \"shed_rate\": {:.4},\n  \"accepted\": {},\n  \"served\": {},\n  \
         \"shed_queue_full\": {},\n  \"shed_quota\": {},\n  \"shed_draining\": {},\n  \
         \"expired\": {},\n  \"cancelled\": {},\n  \"batches\": {},\n  \
         \"per_shard_served\": [{}],\n  \"drain_zero_loss\": true,\n  \
         \"tenants_detail\": [\n{}\n  ]\n}}\n",
        cfg.shards,
        cfg.clients,
        cfg.tenants,
        cfg.quota_qps,
        cfg.hog_factor,
        capacity_qps,
        offered_qps,
        cfg.duration.as_secs_f64(),
        achieved_qps,
        pct.p50,
        pct.p95,
        pct.p99,
        shed_rate,
        stats.accepted,
        stats.served,
        stats.shed_queue_full,
        stats.shed_quota,
        stats.shed_draining,
        stats.expired,
        stats.cancelled,
        stats.batches,
        shards.join(","),
        tenants.join(",\n")
    )
}

fn main() {
    let cfg = Config {
        shards: arg_u64("--shards", 2) as usize,
        max_batch: arg_u64("--max-batch", 4) as usize,
        queue_capacity: arg_u64("--queue-cap", 256) as usize,
        clients: arg_u64("--clients", 8) as usize,
        tenants: arg_u64("--tenants", 4) as u32,
        quota_qps: arg_u64("--quota-qps", 150) as f64,
        hog_factor: arg_u64("--hog-factor", 5) as f64,
        polite_factor: 0.5,
        batch_delay: Duration::from_micros(arg_u64("--batch-delay-us", 2000)),
        duration: Duration::from_millis(arg_u64("--duration-ms", 3000)),
        drain_after: Duration::from_millis(arg_u64("--drain-after-ms", 2500)),
        seed: arg_u64("--seed", 42),
    };
    let out = arg_value("--out").unwrap_or_else(|| "BENCH_net.json".to_string());
    assert!(
        cfg.tenants >= 2,
        "need a hog tenant and at least one polite"
    );
    assert!(cfg.clients >= cfg.tenants as usize, "one client per tenant");

    // EchoRunner capacity: each shard retires one batch per delay.
    let capacity_qps =
        cfg.shards as f64 * cfg.max_batch as f64 / cfg.batch_delay.as_secs_f64().max(1e-9);
    // Tenant 0 offers hog_factor x quota; the others stay politely under.
    // The aggregate must sit below capacity so quota - not the queue - is
    // the only thing shedding.
    let tenant_rate = |t: u32| {
        if t == 0 {
            cfg.quota_qps * cfg.hog_factor
        } else {
            cfg.quota_qps * cfg.polite_factor
        }
    };
    let offered_qps: f64 = (0..cfg.tenants).map(tenant_rate).sum();
    assert!(
        offered_qps < 0.8 * capacity_qps,
        "offered {offered_qps} qps must stay under capacity {capacity_qps} qps"
    );

    let server_cfg = ServerConfig {
        shards: cfg.shards,
        queue_capacity: cfg.queue_capacity,
        max_batch: cfg.max_batch,
        quota: Some(QuotaConfig::per_second(cfg.quota_qps)),
        ..Default::default()
    };
    let runner = Arc::new(EchoRunner::with_delay(cfg.batch_delay));
    let handle = NetServer::start("127.0.0.1:0", server_cfg, runner).expect("start daemon");
    let addr = handle.addr().to_string();
    println!(
        "net daemon on {addr}: {} shards, batch cap {}, {:.0} qps quota/tenant, \
         capacity ~{capacity_qps:.0} qps",
        cfg.shards, cfg.max_batch, cfg.quota_qps
    );
    println!(
        "{} clients x {} tenants, tenant 0 offered {:.0} qps ({}x quota), others {:.0} qps\n",
        cfg.clients,
        cfg.tenants,
        tenant_rate(0),
        cfg.hog_factor,
        tenant_rate(1)
    );

    // Round-robin clients over tenants; split each tenant's offered rate
    // evenly across its clients.
    let clients_for = |t: u32| {
        (0..cfg.clients)
            .filter(|c| (*c as u32) % cfg.tenants == t)
            .count()
    };
    let mut workers = Vec::new();
    for c in 0..cfg.clients {
        let tenant = c as u32 % cfg.tenants;
        let rate = tenant_rate(tenant) / clients_for(tenant) as f64;
        let addr = addr.clone();
        let stream = cfg.seed ^ (0x9e37_79b9_7f4a_7c15u64.wrapping_mul(c as u64 + 1));
        let duration = cfg.duration;
        workers.push(std::thread::spawn(move || {
            run_client(&addr, tenant, rate, duration, stream)
        }));
    }

    // Graceful drain while load is still arriving: every accepted query
    // must still be answered.
    let drain_addr = addr.clone();
    let drain_after = cfg.drain_after;
    let admin = std::thread::spawn(move || {
        std::thread::sleep(drain_after);
        let mut admin = NetClient::connect(&drain_addr).expect("admin connect");
        admin.drain().expect("drain")
    });

    let reports: Vec<ClientReport> = workers.into_iter().map(|w| w.join().unwrap()).collect();
    let in_flight_at_drain = admin.join().unwrap();
    let stats = handle.join();

    // --- The contract the bench exists to check -------------------------
    // 1. Zero result loss across drain: every accepted query was answered.
    assert_eq!(
        stats.accepted,
        stats.served + stats.expired + stats.cancelled,
        "drain lost accepted queries"
    );
    let total_ok: u64 = reports.iter().map(|r| r.ok).sum();
    assert_eq!(
        total_ok, stats.served,
        "served results must all reach a client"
    );
    // 2. Per-tenant quotas shed only the over-quota tenant at saturation.
    let mut tenant_rows: Vec<(u32, f64, u64, u64, u64)> = Vec::new();
    for t in 0..cfg.tenants {
        let ok: u64 = reports.iter().filter(|r| r.tenant == t).map(|r| r.ok).sum();
        let shed: u64 = reports
            .iter()
            .filter(|r| r.tenant == t)
            .map(|r| r.shed_quota)
            .sum();
        let offered: u64 = reports
            .iter()
            .filter(|r| r.tenant == t)
            .map(|r| r.offered)
            .sum();
        tenant_rows.push((t, tenant_rate(t), ok, shed, offered));
    }
    assert!(
        tenant_rows[0].3 > 0,
        "hog tenant offered {}x quota but was never shed",
        cfg.hog_factor
    );
    for row in &tenant_rows[1..] {
        assert_eq!(
            row.3, 0,
            "polite tenant {} was quota-shed; quotas must isolate the hog",
            row.0
        );
    }
    assert_eq!(
        stats.shed_quota,
        tenant_rows.iter().map(|r| r.3).sum::<u64>(),
        "server and client quota-shed counts disagree"
    );
    assert_eq!(
        stats.served,
        stats.per_shard_served.iter().sum::<u64>(),
        "per-shard served must sum to the total"
    );

    let mut hist = LogHistogram::new();
    for r in &reports {
        for &us in &r.latencies_us {
            hist.record(us);
        }
    }
    let pct = hist.percentiles();
    let submitted: u64 = reports
        .iter()
        .map(|r| r.ok + r.shed_quota + r.shed_draining + r.shed_other)
        .sum();
    let shed_total = stats.shed_queue_full + stats.shed_quota + stats.shed_draining;
    let shed_rate = shed_total as f64 / (submitted.max(1)) as f64;
    let achieved_qps = total_ok as f64 / cfg.duration.as_secs_f64();

    print_table(
        &["tenant", "offered qps", "submitted", "ok", "quota-shed"],
        &tenant_rows
            .iter()
            .map(|(t, rate, ok, shed, offered)| {
                vec![
                    if *t == 0 {
                        format!("{t} (hog)")
                    } else {
                        t.to_string()
                    },
                    format!("{rate:.0}"),
                    offered.to_string(),
                    ok.to_string(),
                    shed.to_string(),
                ]
            })
            .collect::<Vec<_>>(),
    );
    println!(
        "\nserved {} of {} submitted ({:.1} qps), shed rate {:.1}%, \
         latency p50/p95/p99 = {:.0}/{:.0}/{:.0} us",
        stats.served,
        submitted,
        achieved_qps,
        100.0 * shed_rate,
        pct.p50,
        pct.p95,
        pct.p99
    );
    println!(
        "drain at {:.1}s with {} in flight: accepted {} == served {} + expired {} \
         + cancelled {} (zero loss), per-shard {:?}",
        cfg.drain_after.as_secs_f64(),
        in_flight_at_drain,
        stats.accepted,
        stats.served,
        stats.expired,
        stats.cancelled,
        stats.per_shard_served
    );

    let payload = json(
        &cfg,
        &tenant_rows,
        achieved_qps,
        &pct,
        shed_rate,
        &stats,
        capacity_qps,
        offered_qps,
    );
    std::fs::write(&out, &payload).expect("write BENCH_net.json");
    println!(
        "\nwrote {out}\nexpected shape: only tenant 0 is quota-shed; accepted == \
         served + expired + cancelled across the drain"
    );
}
