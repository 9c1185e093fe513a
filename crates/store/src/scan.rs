//! Bucket-scan kernels behind the probe of
//! [`IndexedPrefixTable`](crate::IndexedPrefixTable), the crate's one
//! lead-indexed membership test.
//!
//! A bucket is a slice of sorted, fixed-width, big-endian prefix rows.
//! Membership inside a bucket is answered one of three ways:
//!
//! - **Vectorized linear scan** — for buckets up to [`LINEAR_SCAN_MAX`]
//!   rows of the deployed widths (4 and 8 bytes), a `core::arch` x86_64
//!   kernel compares 4/8 rows per instruction (SSE2) or 8/4 rows per
//!   instruction (AVX2).  Equality of big-endian rows is byte-equality, so
//!   the kernels load raw bytes into native-endian lanes — no byte swaps.
//! - **Scalar linear scan** — the branchless fallback for every other
//!   width, for non-x86_64 targets, and when scalar is forced.
//! - **Binary search** — for buckets past [`LINEAR_SCAN_MAX`] rows, so an
//!   adversarially skewed prefix distribution cannot degrade a lookup past
//!   O(log bucket).
//!
//! ## Dispatch rules
//!
//! The backend is chosen **once per process** (first lookup) and cached:
//!
//! 1. If [`FORCE_SCALAR_ENV`] (`SB_STORE_FORCE_SCALAR`) is set to anything
//!    non-empty other than `0`, the scalar kernel is used — this is how CI
//!    differential-tests both paths on the same machine.
//! 2. On x86_64 with AVX2 (runtime-detected), the AVX2 kernel.
//! 3. On any other x86_64, the SSE2 kernel (SSE2 is part of the x86_64
//!    baseline — no detection needed).
//! 4. Everywhere else, the scalar kernel.
//!
//! Every kernel answers identically by construction and is differential-
//! property-tested against the scalar scan and a raw binary search in
//! `tests/scan_differential.rs`.

use std::sync::OnceLock;

/// Bucket sizes above this threshold switch from a linear scan to a binary
/// search, so a maliciously skewed prefix distribution cannot degrade a
/// lookup past O(log bucket).
pub const LINEAR_SCAN_MAX: usize = 64;

/// Environment variable that forces the scalar scan kernel when set to any
/// non-empty value other than `0`.  Read once, at the first lookup of the
/// process.
pub const FORCE_SCALAR_ENV: &str = "SB_STORE_FORCE_SCALAR";

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Backend {
    Scalar,
    #[cfg(target_arch = "x86_64")]
    Sse2,
    #[cfg(target_arch = "x86_64")]
    Avx2,
}

fn backend() -> Backend {
    static BACKEND: OnceLock<Backend> = OnceLock::new();
    *BACKEND.get_or_init(|| {
        let forced = std::env::var_os(FORCE_SCALAR_ENV).is_some_and(|v| !v.is_empty() && v != *"0");
        if forced {
            return Backend::Scalar;
        }
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2") {
                Backend::Avx2
            } else {
                Backend::Sse2
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        Backend::Scalar
    })
}

/// Name of the scan kernel lookups dispatch to on this process:
/// `"avx2"`, `"sse2"` or `"scalar"`.
pub fn active_backend() -> &'static str {
    match backend() {
        Backend::Scalar => "scalar",
        #[cfg(target_arch = "x86_64")]
        Backend::Sse2 => "sse2",
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 => "avx2",
    }
}

/// Membership of `target` (exactly `width` bytes) in a bucket of sorted
/// `width`-byte rows: the production entry point.
///
/// Linear-scans buckets up to [`LINEAR_SCAN_MAX`] rows with the dispatched
/// kernel and binary-searches larger ones.  `rows.len()` must be a multiple
/// of `width`.
#[inline]
pub fn scan_bucket(rows: &[u8], width: usize, target: &[u8]) -> bool {
    debug_assert_eq!(target.len(), width);
    debug_assert_eq!(rows.len() % width, 0);
    if rows.len() > LINEAR_SCAN_MAX * width {
        binary_search_rows(rows, width, target)
    } else {
        scan_linear(rows, width, target)
    }
}

/// Linear scan with the dispatched kernel, regardless of bucket size.
///
/// Exposed (alongside [`scan_linear_scalar`] and [`binary_search_rows`])
/// for the differential property tests and the `simd_vs_scalar` bench.
#[inline]
pub fn scan_linear(rows: &[u8], width: usize, target: &[u8]) -> bool {
    match backend() {
        Backend::Scalar => scan_linear_scalar(rows, width, target),
        #[cfg(target_arch = "x86_64")]
        Backend::Sse2 => x86::scan_sse2(rows, width, target),
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 => x86::scan_avx2(rows, width, target),
    }
}

/// Branchless scalar linear scan — the reference kernel every vectorized
/// path is differential-tested against.
pub fn scan_linear_scalar(rows: &[u8], width: usize, target: &[u8]) -> bool {
    match width {
        2 => {
            let want = u16::from_be_bytes(target[..2].try_into().expect("2-byte target"));
            let mut found = false;
            for row in rows.chunks_exact(2) {
                found |= u16::from_be_bytes([row[0], row[1]]) == want;
            }
            found
        }
        4 => {
            let want = u32::from_be_bytes(target[..4].try_into().expect("4-byte target"));
            let mut found = false;
            for row in rows.chunks_exact(4) {
                found |= u32::from_be_bytes(row.try_into().expect("4-byte row")) == want;
            }
            found
        }
        8 => {
            let want = u64::from_be_bytes(target[..8].try_into().expect("8-byte target"));
            let mut found = false;
            for row in rows.chunks_exact(8) {
                found |= u64::from_be_bytes(row.try_into().expect("8-byte row")) == want;
            }
            found
        }
        _ => {
            let mut found = false;
            for row in rows.chunks_exact(width) {
                found |= row == target;
            }
            found
        }
    }
}

/// Raw binary search over the full sorted row array (big-endian rows sort
/// bytewise, so `Ord` on byte slices is numeric order).
pub fn binary_search_rows(rows: &[u8], width: usize, target: &[u8]) -> bool {
    let mut lo = 0usize;
    let mut hi = rows.len() / width;
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        match rows[mid * width..(mid + 1) * width].cmp(target) {
            std::cmp::Ordering::Equal => return true,
            std::cmp::Ordering::Less => lo = mid + 1,
            std::cmp::Ordering::Greater => hi = mid,
        }
    }
    false
}

/// x86_64 SIMD kernels.  `sb-store` denies `unsafe_code` crate-wide; this
/// module is the single audited exception, and every `unsafe` here is a
/// `core::arch` intrinsic call on unaligned byte data (all loads are
/// explicitly unaligned `loadu` variants, so no alignment obligations).
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod x86 {
    #[allow(clippy::wildcard_imports)]
    use std::arch::x86_64::*;

    pub(super) fn scan_sse2(rows: &[u8], width: usize, target: &[u8]) -> bool {
        match width {
            // SAFETY: SSE2 is part of the x86_64 baseline.
            4 => unsafe { scan4_sse2(rows, target) },
            // SAFETY: as above.
            8 => unsafe { scan8_sse2(rows, target) },
            _ => super::scan_linear_scalar(rows, width, target),
        }
    }

    pub(super) fn scan_avx2(rows: &[u8], width: usize, target: &[u8]) -> bool {
        match width {
            // SAFETY: this arm is only dispatched to after
            // `is_x86_feature_detected!("avx2")` reported support.
            4 => unsafe { scan4_avx2(rows, target) },
            // SAFETY: as above.
            8 => unsafe { scan8_avx2(rows, target) },
            _ => super::scan_linear_scalar(rows, width, target),
        }
    }

    /// 4 rows per compare.  Byte-equality is endian-agnostic, so rows and
    /// target load as native-endian `u32` lanes without swapping.
    unsafe fn scan4_sse2(rows: &[u8], target: &[u8]) -> bool {
        let want = _mm_set1_epi32(i32::from_ne_bytes(
            target[..4].try_into().expect("4-byte target"),
        ));
        let mut acc = _mm_setzero_si128();
        let mut chunks = rows.chunks_exact(16);
        for chunk in &mut chunks {
            let v = _mm_loadu_si128(chunk.as_ptr().cast());
            acc = _mm_or_si128(acc, _mm_cmpeq_epi32(v, want));
        }
        if _mm_movemask_epi8(acc) != 0 {
            return true;
        }
        super::scan_linear_scalar(chunks.remainder(), 4, target)
    }

    /// 2 rows per compare.  SSE2 has no 64-bit lane equality, so each
    /// 16-byte chunk is compared as four 32-bit lanes and a 64-bit row
    /// matches when both of its lanes do (byte mask `0xFF` per row half).
    unsafe fn scan8_sse2(rows: &[u8], target: &[u8]) -> bool {
        let want = _mm_set1_epi64x(i64::from_ne_bytes(
            target[..8].try_into().expect("8-byte target"),
        ));
        let mut chunks = rows.chunks_exact(16);
        for chunk in &mut chunks {
            let v = _mm_loadu_si128(chunk.as_ptr().cast());
            let eq = _mm_movemask_epi8(_mm_cmpeq_epi32(v, want)) as u32;
            if eq & 0xFF == 0xFF || eq >> 8 == 0xFF {
                return true;
            }
        }
        super::scan_linear_scalar(chunks.remainder(), 8, target)
    }

    /// 8 rows per compare.
    #[target_feature(enable = "avx2")]
    unsafe fn scan4_avx2(rows: &[u8], target: &[u8]) -> bool {
        let want = _mm256_set1_epi32(i32::from_ne_bytes(
            target[..4].try_into().expect("4-byte target"),
        ));
        let mut acc = _mm256_setzero_si256();
        let mut chunks = rows.chunks_exact(32);
        for chunk in &mut chunks {
            let v = _mm256_loadu_si256(chunk.as_ptr().cast());
            acc = _mm256_or_si256(acc, _mm256_cmpeq_epi32(v, want));
        }
        if _mm256_movemask_epi8(acc) != 0 {
            return true;
        }
        scan4_sse2(chunks.remainder(), target)
    }

    /// 4 rows per compare (AVX2 has native 64-bit lane equality).
    #[target_feature(enable = "avx2")]
    unsafe fn scan8_avx2(rows: &[u8], target: &[u8]) -> bool {
        let want = _mm256_set1_epi64x(i64::from_ne_bytes(
            target[..8].try_into().expect("8-byte target"),
        ));
        let mut acc = _mm256_setzero_si256();
        let mut chunks = rows.chunks_exact(32);
        for chunk in &mut chunks {
            let v = _mm256_loadu_si256(chunk.as_ptr().cast());
            acc = _mm256_or_si256(acc, _mm256_cmpeq_epi64(v, want));
        }
        if _mm256_movemask_epi8(acc) != 0 {
            return true;
        }
        scan8_sse2(chunks.remainder(), target)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A sorted width-4 row array from u32 values.
    fn rows4(values: &[u32]) -> Vec<u8> {
        let mut v: Vec<u32> = values.to_vec();
        v.sort_unstable();
        v.dedup();
        v.iter().flat_map(|x| x.to_be_bytes()).collect()
    }

    fn rows8(values: &[u64]) -> Vec<u8> {
        let mut v: Vec<u64> = values.to_vec();
        v.sort_unstable();
        v.dedup();
        v.iter().flat_map(|x| x.to_be_bytes()).collect()
    }

    #[test]
    fn kernels_agree_width4() {
        let values: Vec<u32> = (0..100u32).map(|i| i.wrapping_mul(0x9E37_79B9)).collect();
        let rows = rows4(&values);
        for probe in values.iter().copied().chain(0..200u32) {
            let target = probe.to_be_bytes();
            let scalar = scan_linear_scalar(&rows, 4, &target);
            assert_eq!(scan_linear(&rows, 4, &target), scalar, "{probe:#x}");
            assert_eq!(binary_search_rows(&rows, 4, &target), scalar, "{probe:#x}");
            assert_eq!(scan_bucket(&rows, 4, &target), scalar, "{probe:#x}");
        }
    }

    #[test]
    fn kernels_agree_width8() {
        let values: Vec<u64> = (0..100u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .collect();
        let rows = rows8(&values);
        for probe in values.iter().copied().chain(0..200u64) {
            let target = probe.to_be_bytes();
            let scalar = scan_linear_scalar(&rows, 8, &target);
            assert_eq!(scan_linear(&rows, 8, &target), scalar, "{probe:#x}");
            assert_eq!(binary_search_rows(&rows, 8, &target), scalar, "{probe:#x}");
            assert_eq!(scan_bucket(&rows, 8, &target), scalar, "{probe:#x}");
        }
    }

    #[test]
    fn scan_bucket_agrees_across_the_crossover() {
        // Bucket sizes either side of LINEAR_SCAN_MAX, where the entry
        // point switches from the linear kernel to the binary search.
        for n in LINEAR_SCAN_MAX - 2..LINEAR_SCAN_MAX + 3 {
            let values: Vec<u64> = (0..n as u64).map(|i| i * 3 + 1).collect();
            let rows32: Vec<u32> = values.iter().map(|&v| v as u32).collect();
            let (r4, r8) = (rows4(&rows32), rows8(&values));
            for probe in 0..(n as u64 * 3 + 3) {
                let (t4, t8) = ((probe as u32).to_be_bytes(), probe.to_be_bytes());
                let want = probe % 3 == 1 && probe < n as u64 * 3;
                assert_eq!(scan_bucket(&r4, 4, &t4), want, "n={n} w4 {probe}");
                assert_eq!(scan_bucket(&r8, 8, &t8), want, "n={n} w8 {probe}");
            }
        }
    }

    #[test]
    fn empty_rows_answer_false() {
        for width in [2usize, 4, 8, 10, 12, 16, 32] {
            let target = vec![0u8; width];
            assert!(!scan_bucket(&[], width, &target));
            assert!(!scan_linear(&[], width, &target));
            assert!(!scan_linear_scalar(&[], width, &target));
            assert!(!binary_search_rows(&[], width, &target));
        }
    }

    #[test]
    fn half_row_match_is_not_a_match_width8() {
        // Adversarial for the SSE2 paired-lane trick: rows sharing exactly
        // one 32-bit half with the target must not match.
        let target = 0x1111_2222_3333_4444u64;
        let rows = rows8(&[
            0x1111_2222_0000_0000, // high half matches
            0x0000_0000_3333_4444, // low half matches
            0x3333_4444_1111_2222, // halves swapped
        ]);
        assert!(!scan_linear(&rows, 8, &target.to_be_bytes()));
        assert!(!scan_linear_scalar(&rows, 8, &target.to_be_bytes()));
        // ...and adjacent-row half straddles must not match either.
        let rows = rows8(&[0x0000_0000_1111_2222, 0x3333_4444_0000_0000]);
        assert!(!scan_linear(&rows, 8, &target.to_be_bytes()));
    }

    #[test]
    fn remainder_rows_are_scanned() {
        // Matches in the tail shorter than a SIMD chunk must be found.
        for n in 1..24usize {
            let values: Vec<u32> = (0..n as u32).map(|i| i * 7 + 1).collect();
            let rows = rows4(&values);
            let last = values[n - 1].to_be_bytes();
            assert!(scan_linear(&rows, 4, &last), "n={n}");
            assert!(!scan_linear(&rows, 4, &(u32::MAX.to_be_bytes())), "n={n}");
        }
    }

    #[test]
    fn active_backend_is_named() {
        assert!(["scalar", "sse2", "avx2"].contains(&active_backend()));
    }
}
