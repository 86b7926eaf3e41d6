//! One printer per figure of the paper's evaluation (§4.1 calibration,
//! Figures 4–9). A figure's own binary and `run_all` both print through
//! its function here, so the two cannot disagree on a column. A printer
//! only renders the rows its experiment in
//! [`parblast_core::experiments`] returned; it runs nothing.

use parblast_core::experiments::{Calibration, Fig4Result, Fig5Row, Fig6Cell, Fig7Row, Fig9Row};

use crate::render_table;

/// Node counts of Figure 5 (each node a worker and a data server).
pub const FIG5_NODES: [u32; 4] = [1, 2, 4, 8];
/// Worker counts of Figure 6.
pub const FIG6_WORKERS: [u32; 4] = [1, 2, 4, 8];
/// PVFS data-server counts of Figure 6.
pub const FIG6_SERVERS: [u32; 7] = [1, 2, 4, 6, 8, 12, 16];
/// Worker counts of Figure 7.
pub const FIG7_WORKERS: [u32; 4] = [1, 2, 4, 8];

/// `database: 0.20 GB` for a simulated database of `db_bytes`.
fn db_gb(db_bytes: u64) -> String {
    format!("database: {:.2} GB", db_bytes as f64 / 1e9)
}

/// §4.1: simulated Bonnie and Netperf against the paper's numbers.
pub fn calibration(c: &Calibration) -> String {
    let rows = [
        (
            "disk write (Bonnie), MB/s",
            "32",
            format!("{:.1}", c.disk_write_mbs),
        ),
        (
            "disk read (Bonnie), MB/s",
            "26",
            format!("{:.1}", c.disk_read_mbs),
        ),
        (
            "TCP over Myrinet (Netperf), MB/s",
            "~112",
            format!("{:.1}", c.net_mbs),
        ),
        (
            "TCP CPU utilization",
            "47%",
            format!("{:.0}%", c.net_cpu_fraction * 100.0),
        ),
    ]
    .map(|(metric, paper, sim)| vec![metric.into(), paper.into(), sim]);
    format!(
        "Calibration vs paper (§4.1, PrairieFire cluster)\n\n{}",
        render_table(&["metric", "paper", "simulated"], &rows)
    )
}

/// Figure 4: the §4.2 statistics of the real run's I/O trace, over a
/// database of `residues`.
pub fn fig4(r: &Fig4Result, residues: u64) -> String {
    let s = &r.summary;
    let rows = [
        ("total I/O ops", "144", format!("{}", s.ops)),
        ("reads", "89%", format!("{:.0}%", s.read_fraction * 100.0)),
        ("read size min", "13 B", format!("{} B", s.read_min)),
        (
            "read size max",
            "220 MB",
            format!("{:.1} MB", s.read_max as f64 / 1e6),
        ),
        (
            "read size mean",
            "~10 MB",
            format!("{:.2} MB", s.read_mean / 1e6),
        ),
        ("write size min", "50 B", format!("{} B", s.write_min)),
        ("write size max", "778 B", format!("{} B", s.write_max)),
        ("write size mean", "690 B", format!("{:.0} B", s.write_mean)),
        ("query found (hits)", "-", format!("{}", r.hits)),
    ]
    .map(|(metric, paper, run)| vec![metric.into(), paper.into(), run]);
    format!(
        "Figure 4: I/O access pattern of the parallel BLAST (real run)\n\
         database: {residues} residues, 8 fragments, 8 workers, blastn, 568-nt query\n\n{}",
        render_table(&["metric", "paper (2.7 GB nt)", "this run (scaled)"], &rows)
    )
}

/// Figure 5: original vs over-PVFS under equal resources, with the gain
/// in seconds and the ratio.
pub fn fig5(rows: &[Fig5Row], db_bytes: u64) -> String {
    let rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.nodes.to_string(),
                format!("{:.1}", r.t_original),
                format!("{:.1}", r.t_pvfs),
                format!("{:+.1}", r.t_original - r.t_pvfs),
                format!("{:.3}", r.t_pvfs / r.t_original),
            ]
        })
        .collect();
    format!(
        "Figure 5: execution time, original vs over-PVFS (same resources)\n\
         {} (copy time excluded from the original, as in the paper)\n\n{}\n\
         expected shape: PVFS loses at 1 node, wins at 2-8 with shrinking gain\n",
        db_gb(db_bytes),
        render_table(
            &[
                "nodes",
                "original (s)",
                "over-PVFS (s)",
                "gain (s)",
                "PVFS/orig"
            ],
            &rows
        )
    )
}

/// Figure 6: one row per worker count, the original baseline then one
/// column per server count; and the §4.3 I/O fraction (original, 2
/// workers) when `cells` hold it.
pub fn fig6(cells: &[Fig6Cell], workers: &[u32], servers: &[u32], db_bytes: u64) -> String {
    let mut headers: Vec<String> = vec!["workers".into(), "orig".into()];
    headers.extend(servers.iter().map(|s| format!("s={s}")));
    let headers: Vec<&str> = headers.iter().map(String::as_str).collect();
    let rows: Vec<Vec<String>> = workers
        .iter()
        .map(|&w| {
            let mut row = vec![w.to_string()];
            for s in std::iter::once(0).chain(servers.iter().copied()) {
                let cell = cells
                    .iter()
                    .find(|c| c.workers == w && c.servers == s)
                    .expect("a cell per worker and server count");
                row.push(format!("{:.1}", cell.t));
            }
            row
        })
        .collect();
    let mut out = format!(
        "Figure 6: execution time (s) vs number of PVFS data servers\n\
         {}; 'orig' = original scheme baseline\n\n{}\n",
        db_gb(db_bytes),
        render_table(&headers, &rows)
    );
    if let Some(c) = cells.iter().find(|c| c.workers == 2 && c.servers == 0) {
        out.push_str(&format!(
            "I/O fraction (original, 2 workers): {:.1}%  (paper: ~11%)\n",
            c.io_fraction * 100.0
        ));
    }
    out.push_str(
        "expected shape: times fall with servers, flatten by ~4-8, \
         no gain (or slight loss) at 12-16\n",
    );
    out
}

/// Figure 7: over-PVFS with 8 data servers vs over-CEFT-PVFS with 4
/// mirroring 4.
pub fn fig7(rows: &[Fig7Row], db_bytes: u64) -> String {
    let rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.workers.to_string(),
                format!("{:.1}", r.t_pvfs),
                format!("{:.1}", r.t_ceft),
                format!("{:.3}", r.t_ceft / r.t_pvfs),
            ]
        })
        .collect();
    format!(
        "Figure 7: PVFS (8 servers) vs CEFT-PVFS (4 mirroring 4)\n{}\n\n{}\n\
         expected shape: CEFT slightly worse (more metadata), same read parallelism\n",
        db_gb(db_bytes),
        render_table(
            &[
                "workers",
                "over-PVFS (s)",
                "over-CEFT-PVFS (s)",
                "CEFT/PVFS"
            ],
            &rows
        )
    )
}

/// Figure 9: each scheme clean and with one stressed disk, beside the
/// paper's degradation factor.
pub fn fig9(rows: &[Fig9Row], db_bytes: u64) -> String {
    let rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            let paper = match r.scheme {
                "original" => "10x",
                "over-PVFS" => "21x",
                _ => "2x",
            };
            vec![
                r.scheme.to_string(),
                format!("{:.1}", r.t_clean),
                format!("{:.1}", r.t_stressed),
                format!("{:.1}x", r.factor),
                paper.into(),
                r.skipped_parts.to_string(),
            ]
        })
        .collect();
    format!(
        "Figure 9: one disk stressed (Figure 8 program), 8 workers / 8 servers\n{}\n\n{}\n\
         expected shape: PVFS >> original >> CEFT degradation; CEFT skips the hot server\n",
        db_gb(db_bytes),
        render_table(
            &[
                "scheme",
                "no stress (s)",
                "stressed (s)",
                "factor",
                "paper factor",
                "skipped parts",
            ],
            &rows
        )
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use parblast_core::mpiblast::TraceSummary;
    use parblast_core::simcore::Percentiles;

    /// The table's header line and the line of its row that starts with
    /// `first` (after alignment padding), each with runs of spaces
    /// collapsed, so a pin names cells and not column widths.
    fn header_and_row(out: &str, header: &str, first: &str) -> (String, String) {
        let squash = |l: &str| l.split_whitespace().collect::<Vec<_>>().join(" ");
        let lines: Vec<&str> = out.lines().collect();
        let h = lines
            .iter()
            .position(|l| l.trim_start().starts_with(header))
            .unwrap_or_else(|| panic!("no header `{header}` in\n{out}"));
        let row = lines[h + 2..]
            .iter()
            .find(|l| l.trim_start().starts_with(first))
            .unwrap_or_else(|| panic!("no row `{first}` in\n{out}"));
        (squash(lines[h]), squash(row))
    }

    #[test]
    fn calibration_prints_paper_beside_simulated() {
        let out = calibration(&Calibration {
            disk_write_mbs: 32.04,
            disk_read_mbs: 26.0,
            net_mbs: 111.84,
            net_cpu_fraction: 0.4712,
        });
        assert!(out.starts_with("Calibration vs paper (§4.1"), "{out}");
        let (h, row) = header_and_row(&out, "metric", "TCP over Myrinet");
        assert_eq!(h, "metric paper simulated");
        assert_eq!(row, "TCP over Myrinet (Netperf), MB/s ~112 111.8");
        let (_, row) = header_and_row(&out, "metric", "TCP CPU");
        assert_eq!(row, "TCP CPU utilization 47% 47%");
    }

    #[test]
    fn fig4_prints_the_trace_statistics_and_hits() {
        let r = Fig4Result {
            summary: TraceSummary {
                ops: 40,
                reads: 32,
                writes: 8,
                read_fraction: 0.8,
                read_min: 48,
                read_max: 2_100_000,
                read_mean: 660_000.0,
                write_min: 778,
                write_max: 778,
                write_mean: 778.0,
                read_pct: Percentiles::default(),
            },
            scatter_tsv: String::new(),
            hits: 163,
        };
        let out = fig4(&r, 64 << 20);
        assert!(out.contains("database: 67108864 residues"), "{out}");
        let (h, row) = header_and_row(&out, "metric", "read size max");
        assert_eq!(h, "metric paper (2.7 GB nt) this run (scaled)");
        assert_eq!(row, "read size max 220 MB 2.1 MB");
        let (_, row) = header_and_row(&out, "metric", "query found");
        assert_eq!(row, "query found (hits) - 163");
    }

    #[test]
    fn fig5_prints_both_the_gain_and_the_ratio() {
        let rows = [Fig5Row {
            nodes: 2,
            t_original: 48.3,
            t_pvfs: 46.84,
        }];
        let out = fig5(&rows, 201_326_592);
        assert!(out.contains("database: 0.20 GB"), "{out}");
        let (h, row) = header_and_row(&out, "nodes", "2");
        assert_eq!(h, "nodes original (s) over-PVFS (s) gain (s) PVFS/orig");
        assert_eq!(row, "2 48.3 46.8 +1.5 0.970");
    }

    #[test]
    fn fig6_prints_one_column_per_server_count_and_the_io_fraction() {
        let cell = |workers, servers, t| Fig6Cell {
            workers,
            servers,
            t,
            io_fraction: 0.108,
        };
        let cells = [
            cell(1, 0, 90.0),
            cell(1, 4, 83.94),
            cell(2, 0, 45.3),
            cell(2, 4, 42.5),
        ];
        let out = fig6(&cells, &[1, 2], &[4], 201_326_592);
        let (h, row) = header_and_row(&out, "workers", "2");
        assert_eq!(h, "workers orig s=4");
        assert_eq!(row, "2 45.3 42.5");
        assert!(
            out.contains("\nI/O fraction (original, 2 workers): 10.8%  (paper: ~11%)\n"),
            "{out}"
        );
        // Without a 2-worker baseline there is no fraction to print.
        let out = fig6(&cells[..2], &[1], &[4], 201_326_592);
        assert!(!out.contains("I/O fraction"), "{out}");
    }

    #[test]
    fn fig7_prints_the_ceft_to_pvfs_ratio() {
        let rows = [Fig7Row {
            workers: 8,
            t_pvfs: 14.7,
            t_ceft: 14.73,
        }];
        let out = fig7(&rows, 201_326_592);
        let (h, row) = header_and_row(&out, "workers", "8");
        assert_eq!(h, "workers over-PVFS (s) over-CEFT-PVFS (s) CEFT/PVFS");
        assert_eq!(row, "8 14.7 14.7 1.002");
    }

    #[test]
    fn fig9_prints_the_paper_factor_beside_each_scheme() {
        let rows = [Fig9Row {
            scheme: "over-PVFS",
            t_clean: 12.8,
            t_stressed: 203.9,
            factor: 15.93,
            skipped_parts: 0,
        }];
        let out = fig9(&rows, 201_326_592);
        let (h, row) = header_and_row(&out, "scheme", "over-PVFS");
        assert_eq!(
            h,
            "scheme no stress (s) stressed (s) factor paper factor skipped parts"
        );
        assert_eq!(row, "over-PVFS 12.8 203.9 15.9x 21x 0");
    }
}
