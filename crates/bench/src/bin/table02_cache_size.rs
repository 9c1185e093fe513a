//! Table 2 — client-side cache size for different prefix sizes, comparing
//! the raw encoding, the delta-coded table and a 3 MB Bloom filter over the
//! ~630 k prefixes of the Google malware + phishing lists.
//!
//! Run (release recommended): `cargo run -p sb-bench --release --bin table02_cache_size`

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sb_bench::render_table;
use sb_hash::{Prefix, PrefixLen};
use sb_store::{
    BloomFilter, DeltaCodedTable, IndexedPrefixTable, PrefixStore, RawPrefixTable,
    DEFAULT_BLOOM_BYTES,
};

/// Google malware (317 807) + phishing (312 621) prefixes as of the paper.
const NUM_PREFIXES: usize = 317_807 + 312_621;

fn random_prefixes(len: PrefixLen, n: usize, rng: &mut StdRng) -> Vec<Prefix> {
    (0..n)
        .map(|_| {
            let mut bytes = vec![0u8; len.bytes()];
            rng.fill(bytes.as_mut_slice());
            Prefix::from_bytes(&bytes, len)
        })
        .collect()
}

fn mb(bytes: usize) -> String {
    format!("{:.1}", bytes as f64 / (1024.0 * 1024.0))
}

fn main() {
    let mut rng = StdRng::seed_from_u64(2015);
    println!(
        "Table 2: client cache size (MB) for {} prefixes, per prefix size and data structure\n",
        NUM_PREFIXES
    );

    let mut rows = Vec::new();
    for len in [
        PrefixLen::L32,
        PrefixLen::L64,
        PrefixLen::L80,
        PrefixLen::L128,
        PrefixLen::L256,
    ] {
        let prefixes = random_prefixes(len, NUM_PREFIXES, &mut rng);
        let raw = RawPrefixTable::from_prefixes(len, prefixes.iter().copied());
        let delta = DeltaCodedTable::from_prefixes(len, prefixes.iter().copied());
        let bloom = BloomFilter::from_prefixes_with_size(
            len,
            DEFAULT_BLOOM_BYTES,
            prefixes.iter().copied(),
        );
        let indexed = IndexedPrefixTable::from_prefixes(len, prefixes.iter().copied());
        rows.push(vec![
            len.to_string(),
            mb(raw.memory_bytes()),
            mb(delta.memory_bytes()),
            mb(bloom.memory_bytes()),
            mb(indexed.memory_bytes()),
            format!("{:.2}", delta.compression_ratio()),
        ]);
    }
    println!(
        "{}",
        render_table(
            &[
                "Prefix (bits)",
                "Raw (MB)",
                "Delta-coded (MB)",
                "Bloom (MB)",
                "Indexed (MB)",
                "Delta ratio"
            ],
            &rows
        )
    );
    println!(
        "Reading: at 32 bits the delta-coded table compresses the raw 2.5 MB down to ~1.3 MB\n\
         (ratio ~1.9) and beats the constant 3 MB Bloom filter; from 64-bit prefixes onward the\n\
         Bloom filter would be smaller, but it is static and has intrinsic false positives —\n\
         which is why Google kept 32-bit prefixes and the delta-coded table (Section 2.2.2).\n\
         The indexed table is the opposite trade: raw size + a fixed 0.25 MB lead index (elided\n\
         below 4,096 prefixes) bought for lookup speed, the backend the throughput harness\n\
         recommends when memory is not the constraint."
    );
}
