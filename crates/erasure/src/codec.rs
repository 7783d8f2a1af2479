//! The [`ErasureCodec`] trait and codec selection.

use core::fmt;

use crate::error::ErasureError;
use crate::{CauchyRs, Liberation, RsVandermonde};

/// How a codec's computational cost scales, for simulation cost models.
///
/// Real encode/decode time is measured by the Criterion benchmarks; inside
/// deterministic simulations the cost model needs to know which kernel
/// family a codec uses and how much work one stripe is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CostProfile {
    /// Dense GF(2^8) multiply-accumulate passes (RS-Vandermonde): encoding
    /// processes `m * D` bytes through the multiply kernel.
    FieldMul,
    /// An XOR schedule over `w`-packet shards with `ones` set bits in the
    /// coding bit-matrix (Cauchy-RS, Liberation).
    XorSchedule {
        /// Total set bits in the coding matrix (XOR ops per stripe).
        ones: u64,
        /// Word size: each shard is `w` packets.
        w: usize,
    },
}

/// A systematic maximum-distance-separable erasure code.
///
/// A codec splits a value into `k` *data shards* and derives `m` *parity
/// shards*; the original data is recoverable from **any** `k` of the
/// `k + m` shards (the MDS property), tolerating up to `m` erasures.
///
/// Shards are indexed `0..k` (data) then `k..k+m` (parity). All shards in a
/// stripe have equal length, which must be a multiple of
/// [`shard_alignment`](ErasureCodec::shard_alignment).
///
/// Implementations are [`Send`] + [`Sync`] so a single codec can be shared
/// across encoder threads.
pub trait ErasureCodec: Send + Sync + fmt::Debug {
    /// Number of data shards (`k`).
    fn data_shards(&self) -> usize;

    /// Number of parity shards (`m`).
    fn parity_shards(&self) -> usize;

    /// Total shards (`k + m`).
    fn total_shards(&self) -> usize {
        self.data_shards() + self.parity_shards()
    }

    /// Required alignment of each shard length, in bytes.
    fn shard_alignment(&self) -> usize;

    /// Short human-readable codec name (e.g. `"RS_Van"`).
    fn name(&self) -> &'static str;

    /// Which kernel family this codec uses and how much work one stripe is
    /// (see [`CostProfile`]).
    fn cost_profile(&self) -> CostProfile;

    /// Computes parity shards from data shards.
    ///
    /// `data` must contain exactly `k` equal-length slices, `parity` exactly
    /// `m` equal-length buffers of the same length.
    ///
    /// # Errors
    ///
    /// Returns [`ErasureError::ShapeMismatch`] or
    /// [`ErasureError::BadAlignment`] on malformed input.
    fn encode(&self, data: &[&[u8]], parity: &mut [&mut [u8]]) -> Result<(), ErasureError>;

    /// Recovers all missing shards in place.
    ///
    /// `shards` must have length `k + m`; present shards are `Some` and must
    /// share one length. On success every slot is `Some` and data shards
    /// hold the original content.
    ///
    /// # Errors
    ///
    /// Returns [`ErasureError::TooManyErasures`] when fewer than `k` shards
    /// survive, or a shape error on malformed input.
    fn reconstruct(&self, shards: &mut [Option<Vec<u8>>]) -> Result<(), ErasureError>;

    /// Recovers only the `wanted` shard indices from borrowed survivors.
    ///
    /// `present` holds `(index, shard)` pairs of at least `k` distinct
    /// surviving shards of one length; the result holds one buffer per
    /// entry of `wanted`, in order. Unlike
    /// [`reconstruct`](ErasureCodec::reconstruct) nothing is copied in and
    /// no slot beyond `wanted` is derived, so a read can recover just its
    /// missing data shards and a repair just its lost shard.
    ///
    /// The default goes through `reconstruct`; codecs with a direct
    /// per-row decode override it.
    ///
    /// # Errors
    ///
    /// Returns [`ErasureError::TooManyErasures`] when fewer than `k` shards
    /// are present, or a shape error on malformed input (mismatched
    /// lengths, duplicate or out-of-range indices).
    fn recover(
        &self,
        present: &[(usize, &[u8])],
        wanted: &[usize],
    ) -> Result<Vec<Vec<u8>>, ErasureError> {
        check_recover_shape(
            self.data_shards(),
            self.parity_shards(),
            self.shard_alignment(),
            present,
            wanted,
        )?;
        let mut shards: Vec<Option<Vec<u8>>> = vec![None; self.total_shards()];
        for &(i, s) in present {
            shards[i] = Some(s.to_vec());
        }
        self.reconstruct(&mut shards)?;
        Ok(wanted
            .iter()
            .map(|&i| shards[i].clone().expect("reconstruct fills every slot"))
            .collect())
    }
}

/// Validates the common shard-shape preconditions shared by all codecs.
pub(crate) fn check_encode_shape(
    k: usize,
    m: usize,
    alignment: usize,
    data: &[&[u8]],
    parity: &[&mut [u8]],
) -> Result<usize, ErasureError> {
    if data.len() != k {
        return Err(ErasureError::ShapeMismatch {
            detail: format!("expected {k} data shards, got {}", data.len()),
        });
    }
    if parity.len() != m {
        return Err(ErasureError::ShapeMismatch {
            detail: format!("expected {m} parity shards, got {}", parity.len()),
        });
    }
    let len = data[0].len();
    if data.iter().any(|s| s.len() != len) || parity.iter().any(|s| s.len() != len) {
        return Err(ErasureError::ShapeMismatch {
            detail: "all shards must have equal length".to_owned(),
        });
    }
    if !len.is_multiple_of(alignment) {
        return Err(ErasureError::BadAlignment {
            shard_len: len,
            alignment,
        });
    }
    Ok(len)
}

/// Validates reconstruction input and returns the common shard length.
pub(crate) fn check_reconstruct_shape(
    k: usize,
    m: usize,
    alignment: usize,
    shards: &[Option<Vec<u8>>],
) -> Result<usize, ErasureError> {
    if shards.len() != k + m {
        return Err(ErasureError::ShapeMismatch {
            detail: format!("expected {} shard slots, got {}", k + m, shards.len()),
        });
    }
    let present: Vec<(usize, &[u8])> = shards
        .iter()
        .enumerate()
        .filter_map(|(i, s)| s.as_deref().map(|s| (i, s)))
        .collect();
    check_recover_shape(k, m, alignment, &present, &[])
}

/// Validates [`ErasureCodec::recover`] input and returns the common shard
/// length.
pub(crate) fn check_recover_shape(
    k: usize,
    m: usize,
    alignment: usize,
    present: &[(usize, &[u8])],
    wanted: &[usize],
) -> Result<usize, ErasureError> {
    let n = k + m;
    let mut seen = vec![false; n];
    for &(i, _) in present {
        if i >= n || std::mem::replace(&mut seen[i], true) {
            return Err(ErasureError::ShapeMismatch {
                detail: format!("present shard index {i} is out of range or repeated"),
            });
        }
    }
    if let Some(&i) = wanted.iter().find(|&&i| i >= n) {
        return Err(ErasureError::ShapeMismatch {
            detail: format!("wanted shard index {i} is out of range (n = {n})"),
        });
    }
    if present.len() < k {
        return Err(ErasureError::TooManyErasures {
            present: present.len(),
            required: k,
        });
    }
    let len = present[0].1.len();
    if present.iter().any(|(_, s)| s.len() != len) {
        return Err(ErasureError::ShapeMismatch {
            detail: "all present shards must have equal length".to_owned(),
        });
    }
    if !len.is_multiple_of(alignment) {
        return Err(ErasureError::BadAlignment {
            shard_len: len,
            alignment,
        });
    }
    Ok(len)
}

/// Selects one of the three implemented codec families.
///
/// Mirrors the paper's Jerasure study: `RS_Van`, `CRS`, `R6-Lib`.
///
/// # Example
///
/// ```
/// use eckv_erasure::CodecKind;
///
/// let codec = CodecKind::CauchyRs.build(4, 2)?;
/// assert_eq!(codec.total_shards(), 6);
/// # Ok::<(), eckv_erasure::ErasureError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CodecKind {
    /// Reed-Solomon with a systematized Vandermonde generator matrix.
    RsVan,
    /// Cauchy Reed-Solomon over a bit-matrix (XOR-only encoding).
    CauchyRs,
    /// RAID-6 Liberation minimum-density codes (requires `m == 2`).
    Liberation,
}

impl CodecKind {
    /// All codec kinds, in the order the paper plots them.
    pub const ALL: [CodecKind; 3] = [CodecKind::RsVan, CodecKind::CauchyRs, CodecKind::Liberation];

    /// Constructs a boxed codec with the given `(k, m)`.
    ///
    /// # Errors
    ///
    /// Returns [`ErasureError::InvalidParameters`] when the family does not
    /// support the shape (e.g. Liberation with `m != 2`).
    pub fn build(self, k: usize, m: usize) -> Result<Box<dyn ErasureCodec>, ErasureError> {
        Ok(match self {
            CodecKind::RsVan => Box::new(RsVandermonde::new(k, m)?),
            CodecKind::CauchyRs => Box::new(CauchyRs::new(k, m)?),
            CodecKind::Liberation => Box::new(Liberation::new(k, m)?),
        })
    }

    /// The label used in the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            CodecKind::RsVan => "RS_Van",
            CodecKind::CauchyRs => "CRS",
            CodecKind::Liberation => "R6-Lib",
        }
    }
}

impl fmt::Display for CodecKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_all_kinds() {
        for kind in CodecKind::ALL {
            let c = kind.build(3, 2).expect("3+2 is valid for all kinds");
            assert_eq!(c.data_shards(), 3);
            assert_eq!(c.parity_shards(), 2);
            assert_eq!(c.total_shards(), 5);
            assert_eq!(c.name(), kind.label());
        }
    }

    #[test]
    fn liberation_rejects_m3() {
        assert!(matches!(
            CodecKind::Liberation.build(3, 3),
            Err(ErasureError::InvalidParameters { .. })
        ));
    }

    #[test]
    fn display_matches_label() {
        assert_eq!(CodecKind::RsVan.to_string(), "RS_Van");
        assert_eq!(CodecKind::CauchyRs.to_string(), "CRS");
        assert_eq!(CodecKind::Liberation.to_string(), "R6-Lib");
    }

    #[test]
    fn shape_checks_reject_bad_input() {
        let d1 = [1u8, 2, 3];
        let d2 = [4u8, 5];
        let data: Vec<&[u8]> = vec![&d1, &d2];
        let mut p1 = vec![0u8; 3];
        let parity: Vec<&mut [u8]> = vec![&mut p1];
        assert!(matches!(
            check_encode_shape(2, 1, 1, &data, &parity),
            Err(ErasureError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn recover_shape_checks() {
        let a = [0u8; 4];
        let b = [0u8; 3];
        assert!(matches!(
            check_recover_shape(2, 1, 1, &[(0, &a)], &[1]),
            Err(ErasureError::TooManyErasures {
                present: 1,
                required: 2
            })
        ));
        for (present, wanted) in [
            (vec![(0, &a[..]), (0, &a[..])], vec![2]),
            (vec![(0, &a[..]), (3, &a[..])], vec![2]),
            (vec![(0, &a[..]), (1, &a[..])], vec![3]),
            (vec![(0, &a[..]), (1, &b[..])], vec![2]),
        ] {
            assert!(matches!(
                check_recover_shape(2, 1, 1, &present, &wanted),
                Err(ErasureError::ShapeMismatch { .. })
            ));
        }
        assert!(matches!(
            check_recover_shape(2, 1, 2, &[(0, &b), (1, &b)], &[2]),
            Err(ErasureError::BadAlignment { .. })
        ));
        assert_eq!(
            check_recover_shape(2, 1, 2, &[(2, &a), (0, &a)], &[1]),
            Ok(4)
        );
    }

    #[test]
    fn recover_matches_reconstruct_all_codecs() {
        // Every erasure pattern of up to m shards, for empty, minimal and
        // unaligned-to-SIMD shard lengths.
        let (k, m) = (3, 2);
        for kind in CodecKind::ALL {
            let codec = kind.build(k, m).unwrap();
            let align = codec.shard_alignment();
            for len in [0, align, 37 * align] {
                let data: Vec<Vec<u8>> = (0..k)
                    .map(|d| (0..len).map(|j| (d * 101 + j * 7 + 1) as u8).collect())
                    .collect();
                let mut parity = vec![vec![0u8; len]; m];
                {
                    let refs: Vec<&[u8]> = data.iter().map(Vec::as_slice).collect();
                    let mut prefs: Vec<&mut [u8]> =
                        parity.iter_mut().map(Vec::as_mut_slice).collect();
                    codec.encode(&refs, &mut prefs).unwrap();
                }
                let all: Vec<Vec<u8>> = data.into_iter().chain(parity).collect();
                for mask in 0u32..1 << (k + m) {
                    if mask.count_ones() as usize > m {
                        continue;
                    }
                    let missing: Vec<usize> =
                        (0..k + m).filter(|&i| mask & (1 << i) != 0).collect();
                    let present: Vec<(usize, &[u8])> = (0..k + m)
                        .filter(|&i| mask & (1 << i) == 0)
                        .map(|i| (i, all[i].as_slice()))
                        .collect();
                    let mut shards: Vec<Option<Vec<u8>>> = all
                        .iter()
                        .enumerate()
                        .map(|(i, s)| (mask & (1 << i) == 0).then(|| s.clone()))
                        .collect();
                    codec.reconstruct(&mut shards).unwrap();
                    let got = codec.recover(&present, &missing).unwrap();
                    for (&i, buf) in missing.iter().zip(&got) {
                        assert_eq!(Some(buf), shards[i].as_ref(), "{kind} len={len} lost {i}");
                        assert_eq!(buf, &all[i], "{kind} len={len} lost {i}");
                    }
                    // Asking for a present shard returns it unchanged.
                    let all_idx: Vec<usize> = (0..k + m).collect();
                    let every = codec.recover(&present, &all_idx).unwrap();
                    assert_eq!(every, all, "{kind} len={len} mask={mask:b}");
                }
            }
        }
    }

    #[test]
    fn reconstruct_shape_checks() {
        let shards = vec![Some(vec![0u8; 4]), None, None];
        assert!(matches!(
            check_reconstruct_shape(2, 1, 1, &shards),
            Err(ErasureError::TooManyErasures {
                present: 1,
                required: 2
            })
        ));
        let shards = vec![Some(vec![0u8; 4]), Some(vec![0u8; 3]), None];
        assert!(matches!(
            check_reconstruct_shape(2, 1, 1, &shards),
            Err(ErasureError::ShapeMismatch { .. })
        ));
        let shards = vec![Some(vec![0u8; 3]), Some(vec![0u8; 3]), None];
        assert!(matches!(
            check_reconstruct_shape(2, 1, 2, &shards),
            Err(ErasureError::BadAlignment { .. })
        ));
    }
}
