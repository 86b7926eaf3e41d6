//! Cross-crate integration tests: the full pipeline from synthetic
//! database generation through formatting, segmentation, the three I/O
//! schemes, and the search engine, checked end to end.

use parblast::blast::{blastall, tabular, DbStats, Program, SearchParams};
use parblast::mpiblast::{ParallelBlast, Parallelization, Scheme, Tracer};
use parblast::pio::{read_all, ObjectStore};
use parblast::seqdb::blastdb::DbSequence;
use parblast::seqdb::{
    extract_query, segment_into_fragments, FastaReader, FastaWriter, SeqType, SyntheticConfig,
    SyntheticNt, Volume,
};
use std::path::PathBuf;

fn tmp(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("parblast_it_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn gen_db(total: u64, seed: u64) -> (Vec<(String, Vec<u8>)>, DbStats) {
    let mut g = SyntheticNt::new(SyntheticConfig {
        total_residues: total,
        seed,
        ..Default::default()
    });
    let mut seqs = Vec::new();
    while let Some(s) = g.next() {
        seqs.push(s);
    }
    let db = DbStats {
        residues: g.residues(),
        nseq: g.sequences(),
    };
    (seqs, db)
}

/// FASTA round trip through real files feeds the search engine.
#[test]
fn fasta_to_search_pipeline() {
    let dir = tmp("fasta");
    let (seqs, _) = gen_db(200_000, 11);
    // Write FASTA (ASCII), read it back, re-encode, search.
    let path = dir.join("db.fa");
    {
        let mut w = FastaWriter::create(&path).unwrap();
        for (defline, codes) in &seqs {
            let ascii = parblast::seqdb::to_ascii(codes);
            let mut parts = defline.splitn(2, ' ');
            w.write_record(parts.next().unwrap(), parts.next().unwrap_or(""), &ascii)
                .unwrap();
        }
        w.finish().unwrap();
    }
    let records = FastaReader::open(&path).unwrap().read_all().unwrap();
    assert_eq!(records.len(), seqs.len());
    let volume = Volume {
        seq_type: SeqType::Nucleotide,
        sequences: records
            .into_iter()
            .map(|r| DbSequence {
                defline: r.defline(),
                codes: parblast::seqdb::encode_nt_seq(&r.seq),
            })
            .collect(),
    };
    // Codes must survive the ASCII round trip exactly.
    for (orig, back) in seqs.iter().zip(&volume.sequences) {
        assert_eq!(orig.1, back.codes, "round trip broke {}", back.defline);
    }
    let src = seqs.iter().position(|(_, c)| c.len() >= 400).unwrap();
    let query = extract_query(&seqs[src].1, 400, 0.0, 3);
    let hits = blastall(&query, &volume, &SearchParams::blastn());
    assert_eq!(
        hits[0].subject_id,
        seqs[src].0.split_whitespace().next().unwrap()
    );
    assert_eq!(hits[0].hsps[0].identities, 400);
    std::fs::remove_dir_all(&dir).ok();
}

/// The same bytes come back through every storage backend, and the striped
/// store spreads them across servers.
#[test]
fn storage_backends_are_byte_identical() {
    let dir = tmp("stores");
    let (seqs, _) = gen_db(150_000, 13);
    let frags =
        segment_into_fragments(&dir.join("fmt"), "nt", SeqType::Nucleotide, 3, seqs).unwrap();
    let payload = std::fs::read(&frags[0].path).unwrap();

    let schemes = [
        Scheme::local_at(&dir.join("l"), 2).unwrap(),
        Scheme::pvfs_at(&dir.join("p"), 5, 4096).unwrap(),
        Scheme::ceft_at(&dir.join("c"), 3, 4096).unwrap(),
    ];
    for scheme in &schemes {
        scheme.load_fragment("frag", &payload).unwrap();
    }
    for scheme in &schemes {
        let (mut r, _) = scheme.open_for_worker(0, "frag").unwrap();
        let mut buf = vec![0u8; payload.len()];
        r.read_at(0, &mut buf).unwrap();
        assert_eq!(buf, payload, "{}", scheme.name());
    }
    // Direct store-level check for the striped backend.
    if let Scheme::Pvfs(st) = &schemes[1] {
        assert_eq!(read_all(st, "frag").unwrap(), payload);
        assert_eq!(st.size("frag").unwrap(), payload.len() as u64);
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// mpiBLAST semantics: fragment-segmented parallel search returns the same
/// hit set as an unsegmented single search (E-values computed against the
/// full database in both cases).
#[test]
fn segmented_search_equals_whole_database_search() {
    let dir = tmp("equiv");
    let (seqs, db) = gen_db(300_000, 17);
    let query = extract_query(&seqs[5].1, 568, 0.03, 9);

    // Whole-database search.
    let volume = Volume {
        seq_type: SeqType::Nucleotide,
        sequences: seqs
            .iter()
            .map(|(d, c)| DbSequence {
                defline: d.clone(),
                codes: c.clone(),
            })
            .collect(),
    };
    let params = SearchParams::blastn();
    let whole = blastall(&query, &volume, &params);

    // Parallel segmented search over 4 fragments, 3 workers.
    let infos =
        segment_into_fragments(&dir.join("fmt"), "nt", SeqType::Nucleotide, 4, seqs).unwrap();
    let scheme = Scheme::local_at(&dir.join("io"), 3).unwrap();
    let mut fragments = Vec::new();
    for info in &infos {
        let bytes = std::fs::read(&info.path).unwrap();
        let name = info
            .path
            .file_name()
            .unwrap()
            .to_string_lossy()
            .into_owned();
        scheme.load_fragment(&name, &bytes).unwrap();
        fragments.push(name);
    }
    let key = |hits: &[parblast::blast::Hit]| -> Vec<(String, i32)> {
        let mut v: Vec<(String, i32)> = hits
            .iter()
            .map(|h| (h.subject_id.clone(), h.best_score()))
            .collect();
        v.sort();
        v
    };
    // Equivalence must hold for every combination of the two I/O-shape
    // knobs: fragment prefetch and list-I/O request aggregation.
    for prefetch in [false, true] {
        for list_io in [false, true] {
            let job = ParallelBlast {
                program: Program::Blastn,
                params: params.clone(),
                db,
                fragments: fragments.clone(),
                workers: 3,
                scheme: scheme.clone(),
                tracer: Tracer::disabled(),
                parallelization: Parallelization::DatabaseSegmentation,
                prefetch,
                list_io,
            };
            let out = job.run(&query).unwrap();
            assert_eq!(
                key(&whole),
                key(&out.hits),
                "prefetch={prefetch} list_io={list_io}"
            );
            // And E-values agree for the best hit.
            let best_whole = whole[0].best_evalue();
            let best_seg = out.hits[0].best_evalue();
            assert!(
                (best_whole.log10() - best_seg.log10()).abs() < 1e-9,
                "prefetch={prefetch} list_io={list_io}: {best_whole} vs {best_seg}"
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The tabular report parses as 12 tab-separated columns for every hit.
#[test]
fn tabular_output_is_well_formed() {
    let (seqs, _) = gen_db(100_000, 29);
    let volume = Volume {
        seq_type: SeqType::Nucleotide,
        sequences: seqs
            .iter()
            .map(|(d, c)| DbSequence {
                defline: d.clone(),
                codes: c.clone(),
            })
            .collect(),
    };
    let query = extract_query(&seqs[1].1, 500, 0.05, 31);
    let hits = blastall(&query, &volume, &SearchParams::blastn());
    let table = tabular("q1", &hits);
    assert!(!table.is_empty());
    for line in table.lines() {
        let fields: Vec<&str> = line.split('\t').collect();
        assert_eq!(fields.len(), 12, "bad line: {line}");
        let pid: f64 = fields[2].parse().unwrap();
        assert!((0.0..=100.0).contains(&pid));
        let evalue: f64 = fields[10].parse().unwrap();
        assert!(evalue >= 0.0);
        let qs: u64 = fields[6].parse().unwrap();
        let qe: u64 = fields[7].parse().unwrap();
        assert!(qs >= 1 && qe >= qs);
    }
}
