//! Criterion micro-benchmarks of the search-engine kernels: word
//! scanning, ungapped/gapped extension, statistics, and a full blastn
//! search — the compute side whose dominance over I/O drives the paper's
//! Amdahl observation (§4.3).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use parblast_core::blast::{
    banded_global, extend_gapped, extend_ungapped, scorer_params, search_volume, BatchedNtLookup,
    DbStats, GapPenalties, Scorer, SearchParams,
};
use parblast_core::seqdb::blastdb::DbSequence;
use parblast_core::seqdb::{
    extract_query, pack_2bit, reverse_complement, SeqType, SyntheticConfig, SyntheticNt, Volume,
};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

fn random_nt(seed: u64, len: usize) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..len).map(|_| rng.random_range(0..4u8)).collect()
}

fn nt_scorer() -> Scorer {
    Scorer::Nucleotide {
        reward: 1,
        penalty: -3,
    }
}

fn bench_word_scan(c: &mut Criterion) {
    let query = random_nt(1, 568);
    let subject = random_nt(2, 1 << 20);
    let packed = pack_2bit(&subject);
    // Both strands in one lookup, as every blastn search scans.
    let lookup = BatchedNtLookup::build(&[&query, &reverse_complement(&query)], 11);
    let mut g = c.benchmark_group("word_scan");
    g.throughput(Throughput::Bytes(subject.len() as u64));
    g.bench_function("w11_568nt_query_1Mi_bases_packed", |b| {
        b.iter(|| {
            let mut hits = 0u64;
            lookup.scan_packed_batched(&packed, subject.len(), |_, _, _| hits += 1);
            hits
        })
    });
    g.finish();
}

fn bench_extensions(c: &mut Criterion) {
    // A planted 2 kb homologous region with 5 % divergence.
    let mut rng = StdRng::seed_from_u64(3);
    let core: Vec<u8> = (0..2048).map(|_| rng.random_range(0..4u8)).collect();
    let mut subject = core.clone();
    for _ in 0..100 {
        let p = rng.random_range(0..subject.len());
        subject[p] = (subject[p] + 1) & 3;
    }
    let mut g = c.benchmark_group("extension");
    g.bench_function("ungapped_2kb", |b| {
        b.iter(|| extend_ungapped(&core, &subject, 1024, 1024, 11, &nt_scorer(), 16))
    });
    g.bench_function("gapped_xdrop_2kb", |b| {
        b.iter(|| {
            extend_gapped(
                &core,
                &subject,
                1024,
                1024,
                &nt_scorer(),
                GapPenalties::blastn(),
                30,
            )
        })
    });
    g.bench_function("banded_traceback_512", |b| {
        b.iter(|| {
            banded_global(
                &core[..512],
                &subject[..512],
                &nt_scorer(),
                GapPenalties::blastn(),
                16,
            )
        })
    });
    g.finish();
}

fn bench_statistics(c: &mut Criterion) {
    c.bench_function("karlin_params_blastn", |b| {
        b.iter(|| scorer_params(&nt_scorer()).unwrap())
    });
}

fn bench_full_search(c: &mut Criterion) {
    let mut gen = SyntheticNt::new(SyntheticConfig {
        total_residues: 1 << 20,
        seed: 7,
        ..Default::default()
    });
    let mut seqs = Vec::new();
    while let Some(s) = gen.next() {
        seqs.push(s);
    }
    let query = extract_query(&seqs[0].1, 568, 0.02, 1);
    let volume = Volume {
        seq_type: SeqType::Nucleotide,
        sequences: seqs
            .into_iter()
            .map(|(defline, codes)| DbSequence { defline, codes })
            .collect(),
    };
    let db = DbStats {
        residues: volume.residues(),
        nseq: volume.sequences.len() as u64,
    };
    let params = SearchParams::blastn();
    let mut g = c.benchmark_group("full_search");
    g.throughput(Throughput::Bytes(volume.residues()));
    g.sample_size(10);
    g.bench_function("blastn_568nt_vs_1M_residues", |b| {
        b.iter_batched(
            || (),
            |_| search_volume(&query, &volume, &params, db),
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_word_scan,
    bench_extensions,
    bench_statistics,
    bench_full_search
);
criterion_main!(benches);
