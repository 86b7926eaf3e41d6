//! Metric names and units, in the order `BENCHMARK.json` lists them, and
//! the one-line result the driver reads.

use std::collections::BTreeMap;

pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("query_p50_ms", "ms"),
    ("served_qps", "1/s"),
    ("cpu_ms_per_query", "ms"),
];

pub const PER_LAYER: &[(&str, &str)] = &[
    ("query_p95_ms", "ms"),
    ("rss_mb", "MiB"),
    ("peak_rss_mb", "MiB"),
    ("net.rtt_us", "us"),
    ("net.echo_query_us", "us"),
    ("net.codec_ns_per_kb", "ns/KiB"),
    ("net.submits", "count"),
    ("net.sheds", "count"),
    ("net.expired", "count"),
    ("net.ledger_ok", "count"),
    ("serve.batches", "count"),
    ("serve.mean_batch", "count"),
    ("serve.exec_busy_frac", "frac"),
    ("serve.wait_ms_p50", "ms"),
    ("serve.wait_ms_p95", "ms"),
    ("serve.admit_take_ns", "ns"),
    ("serve.open_lo_p50_ms", "ms"),
    ("serve.open_lo_p95_ms", "ms"),
    ("serve.open_hi_p95_ms", "ms"),
    ("serve.slo_rate_qps", "1/s"),
    ("serve.gen_late_ms_max", "ms"),
    ("mpiblast.run_batch_ms_p50", "ms"),
    ("mpiblast.io_fetch_s", "s"),
    ("mpiblast.io_stall_s", "s"),
    ("mpiblast.io_hidden_frac", "frac"),
    ("mpiblast.copy_s", "s"),
    ("mpiblast.worker_imbalance", "ratio"),
    ("mpiblast.orchestration_ms", "ms"),
    ("pio.read_mbps.local", "MB/s"),
    ("pio.read_mbps.pvfs", "MB/s"),
    ("pio.read_mbps.ceft", "MB/s"),
    ("pio.read_frac_of_file", "frac"),
    ("pio.put_mbps.local", "MB/s"),
    ("pio.put_mbps.pvfs", "MB/s"),
    ("pio.put_mbps.ceft", "MB/s"),
    ("pio.server_requests_per_job", "count"),
    ("pio.frac_of_device", "frac"),
    ("seqdb.format_mbps", "MB/s"),
    ("seqdb.decode_mbps", "MB/s"),
    ("blast.lookup_build_us", "us"),
    ("blast.search_fixed_us", "us"),
    ("blast.search_ms_per_fragment", "ms"),
    ("blast.scan_mbases_per_s", "Mbases/s"),
    ("blast.scan_frac_of_mem", "frac"),
    ("blast.search_share_of_stages", "frac"),
    ("blast.report_us_per_query", "us"),
    ("blast.hits_per_query", "count"),
    ("blast.unpacks_per_query", "count"),
    ("blast.kernel_passes", "count"),
    ("blast.passes_saved", "count"),
    ("ceiling.mem_read_gbps", "GB/s"),
    ("ceiling.file_read_mbps", "MB/s"),
    ("ceiling.loopback_rtt_us", "us"),
    ("trace.stage_sum_over_wall", "ratio"),
    ("trace.overhead_frac", "frac"),
];

/// What one run measured. A per-layer metric a workload has no such layer
/// for (no daemon in a batch job, no second rate step in a closed loop)
/// stays absent and prints as 0.
#[derive(Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        let known = END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name);
        assert!(known, "metric {name} is not in the tables");
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// The result of one run.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
}

impl Outcome {
    /// The contract's last line: every metric of the requested table.
    pub fn to_json(&self, traced: bool) -> String {
        let table = if traced { PER_LAYER } else { END_TO_END };
        let body: Vec<String> = table
            .iter()
            .map(|(name, unit)| {
                let value = match self.metrics.get(name) {
                    Some(v) => v,
                    None if traced => 0.0,
                    None => panic!("workload did not report end-to-end metric {name}"),
                };
                assert!(value.is_finite(), "metric {name} is not finite");
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            body.join(", ")
        )
    }
}
