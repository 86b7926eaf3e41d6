//! Search results: HSPs, hits, and the tabular (`-m 8`) report format.

/// One high-scoring segment pair, fully annotated.
#[derive(Debug, Clone, PartialEq)]
pub struct Hsp {
    /// Raw alignment score.
    pub score: i32,
    /// Bit score.
    pub bit_score: f64,
    /// Expectation value.
    pub evalue: f64,
    /// Query start, 0-based inclusive (in query coordinates of the
    /// original, untranslated query).
    pub q_start: usize,
    /// Query end, 0-based exclusive.
    pub q_end: usize,
    /// Subject start, 0-based inclusive.
    pub s_start: usize,
    /// Subject end, 0-based exclusive.
    pub s_end: usize,
    /// Query strand/frame (+1 forward, −1 reverse for blastn; reading
    /// frame for translated searches).
    pub q_frame: i8,
    /// Subject strand/frame.
    pub s_frame: i8,
    /// Aligned columns.
    pub align_len: usize,
    /// Identical pairs.
    pub identities: usize,
    /// Mismatched pairs.
    pub mismatches: usize,
    /// Gap openings.
    pub gap_opens: usize,
}

impl Hsp {
    /// Percent identity over the alignment.
    pub fn percent_identity(&self) -> f64 {
        if self.align_len == 0 {
            0.0
        } else {
            100.0 * self.identities as f64 / self.align_len as f64
        }
    }
}

/// All HSPs of one subject sequence.
#[derive(Debug, Clone, PartialEq)]
pub struct Hit {
    /// Subject identifier (first word of its defline).
    pub subject_id: String,
    /// Index of the subject within the searched volume.
    pub subject_index: usize,
    /// HSPs sorted by descending score.
    pub hsps: Vec<Hsp>,
}

impl Hit {
    /// Best (lowest) E-value across HSPs.
    pub fn best_evalue(&self) -> f64 {
        self.hsps
            .iter()
            .map(|h| h.evalue)
            .fold(f64::INFINITY, f64::min)
    }

    /// Best raw score.
    pub fn best_score(&self) -> i32 {
        self.hsps.iter().map(|h| h.score).max().unwrap_or(0)
    }
}

/// Render hits in BLAST tabular (`-m 8`) format: qid, sid, %identity,
/// alignment length, mismatches, gap opens, qstart, qend, sstart, send
/// (1-based inclusive), evalue, bit score.
pub fn tabular(query_id: &str, hits: &[Hit]) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    for hit in hits {
        for h in &hit.hsps {
            // BLAST reports minus-strand subject coordinates reversed.
            let (ss, se) = if h.s_frame < 0 {
                (h.s_end, h.s_start + 1)
            } else {
                (h.s_start + 1, h.s_end)
            };
            writeln!(
                out,
                "{}\t{}\t{:.2}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{:.2e}\t{:.1}",
                query_id,
                hit.subject_id,
                h.percent_identity(),
                h.align_len,
                h.mismatches,
                h.gap_opens,
                h.q_start + 1,
                h.q_end,
                ss,
                se,
                h.evalue,
                h.bit_score,
            )
            .expect("writing to a String cannot fail");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hsp() -> Hsp {
        Hsp {
            score: 50,
            bit_score: 100.2,
            evalue: 1e-20,
            q_start: 0,
            q_end: 50,
            s_start: 10,
            s_end: 60,
            q_frame: 1,
            s_frame: 1,
            align_len: 50,
            identities: 48,
            mismatches: 2,
            gap_opens: 0,
        }
    }

    #[test]
    fn percent_identity() {
        assert!((hsp().percent_identity() - 96.0).abs() < 1e-9);
    }

    #[test]
    fn tabular_format_fields() {
        let hits = vec![Hit {
            subject_id: "gi|123|x".into(),
            subject_index: 0,
            hsps: vec![hsp()],
        }];
        let line = tabular("query1", &hits);
        let fields: Vec<&str> = line.trim().split('\t').collect();
        assert_eq!(fields.len(), 12);
        assert_eq!(fields[0], "query1");
        assert_eq!(fields[1], "gi|123|x");
        assert_eq!(fields[2], "96.00");
        assert_eq!(fields[6], "1");
        assert_eq!(fields[7], "50");
        assert_eq!(fields[8], "11");
        assert_eq!(fields[9], "60");
    }

    #[test]
    fn minus_strand_coordinates_reversed() {
        let mut h = hsp();
        h.s_frame = -1;
        let hits = vec![Hit {
            subject_id: "s".into(),
            subject_index: 0,
            hsps: vec![h],
        }];
        let line = tabular("q", &hits);
        let fields: Vec<&str> = line.trim().split('\t').collect();
        // Reversed: sstart > send.
        assert_eq!(fields[8], "60");
        assert_eq!(fields[9], "11");
    }

    #[test]
    fn tabular_bytes_for_several_hits_on_both_strands() {
        let mut minus = hsp();
        minus.s_frame = -1;
        minus.q_frame = -1;
        minus.gap_opens = 2;
        minus.evalue = 3.5e-7;
        minus.bit_score = 40.14;
        let mut short = hsp();
        short.q_start = 7;
        short.q_end = 31;
        short.s_start = 1000;
        short.s_end = 1025;
        short.align_len = 25;
        short.identities = 22;
        short.mismatches = 2;
        short.gap_opens = 1;
        short.evalue = 0.0;
        short.bit_score = 1096.0;
        let hits = vec![
            Hit {
                subject_id: "gi|123|x".into(),
                subject_index: 0,
                hsps: vec![hsp(), minus],
            },
            Hit {
                subject_id: "s2".into(),
                subject_index: 4,
                hsps: vec![short],
            },
        ];
        assert_eq!(
            tabular("q1", &hits),
            "q1\tgi|123|x\t96.00\t50\t2\t0\t1\t50\t11\t60\t1.00e-20\t100.2\n\
             q1\tgi|123|x\t96.00\t50\t2\t2\t1\t50\t60\t11\t3.50e-7\t40.1\n\
             q1\ts2\t88.00\t25\t2\t1\t8\t31\t1001\t1025\t0.00e0\t1096.0\n"
        );
        assert_eq!(tabular("q1", &[]), "");
    }

    #[test]
    fn best_evalue_and_score() {
        let mut a = hsp();
        a.evalue = 1e-5;
        a.score = 30;
        let mut b = hsp();
        b.evalue = 1e-9;
        b.score = 45;
        let hit = Hit {
            subject_id: "s".into(),
            subject_index: 1,
            hsps: vec![a, b],
        };
        assert_eq!(hit.best_evalue(), 1e-9);
        assert_eq!(hit.best_score(), 45);
    }
}
