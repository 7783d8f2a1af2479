//! Value framing: split arbitrary-length values into aligned stripes.

use std::borrow::Cow;
use std::sync::Arc;

use crate::codec::{check_recover_shape, ErasureCodec};
use crate::error::ErasureError;

/// An encoded stripe: `k + m` equal-length shards plus the framing needed to
/// recover the exact original value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EncodedStripe {
    /// All shards: indices `0..k` are data, `k..k+m` parity.
    pub shards: Vec<Vec<u8>>,
    /// Length of the original (unpadded) value in bytes.
    pub original_len: usize,
    /// Length of each shard in bytes.
    pub shard_len: usize,
}

/// Splits values into codec-aligned shards and reassembles them.
///
/// The striper owns a shared [`ErasureCodec`] so clients, servers and
/// benchmark drivers can encode concurrently from one instance.
///
/// # Example
///
/// ```
/// use eckv_erasure::{CodecKind, Striper};
///
/// let striper = Striper::new(CodecKind::Liberation.build(3, 2)?);
/// let stripe = striper.encode_value(&vec![42u8; 10_000]);
/// assert_eq!(stripe.shards.len(), 5);
/// assert_eq!(stripe.shards[0].len(), stripe.shard_len);
/// # Ok::<(), eckv_erasure::ErasureError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Striper {
    codec: Arc<dyn ErasureCodec>,
}

impl Striper {
    /// Wraps a codec.
    pub fn new(codec: impl Into<Arc<dyn ErasureCodec>>) -> Self {
        Striper {
            codec: codec.into(),
        }
    }

    /// The wrapped codec.
    pub fn codec(&self) -> &Arc<dyn ErasureCodec> {
        &self.codec
    }

    /// Shard length used for a value of `len` bytes: `ceil(len / k)` rounded
    /// up to the codec's alignment (and at least one alignment unit so empty
    /// values still produce well-formed stripes).
    pub fn shard_len_for(&self, len: usize) -> usize {
        let k = self.codec.data_shards();
        let align = self.codec.shard_alignment();
        let per_shard = len.div_ceil(k).max(1);
        per_shard.div_ceil(align) * align
    }

    /// Encodes a value into `k + m` shards, zero-padding the tail.
    pub fn encode_value(&self, value: &[u8]) -> EncodedStripe {
        let k = self.codec.data_shards();
        let m = self.codec.parity_shards();
        let shard_len = self.shard_len_for(value.len());

        let mut data: Vec<Vec<u8>> = Vec::with_capacity(k);
        for i in 0..k {
            let start = (i * shard_len).min(value.len());
            let end = ((i + 1) * shard_len).min(value.len());
            let mut shard = Vec::with_capacity(shard_len);
            shard.extend_from_slice(&value[start..end]);
            shard.resize(shard_len, 0);
            data.push(shard);
        }
        let mut parity: Vec<Vec<u8>> = vec![vec![0u8; shard_len]; m];
        {
            let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
            let mut prefs: Vec<&mut [u8]> = parity.iter_mut().map(|p| p.as_mut_slice()).collect();
            self.codec
                .encode(&refs, &mut prefs)
                .expect("shards constructed by the striper are always well-shaped");
        }
        let mut shards = data;
        shards.extend(parity);
        EncodedStripe {
            shards,
            original_len: value.len(),
            shard_len,
        }
    }

    /// Reconstructs the original value from surviving shards.
    ///
    /// `shards` must have `k + m` slots; missing shards are `None`. The
    /// slots are filled in as a side effect (useful for repair).
    ///
    /// # Errors
    ///
    /// Returns [`ErasureError::TooManyErasures`] when fewer than `k` shards
    /// survive, or a shape error on malformed input.
    pub fn decode_value(
        &self,
        shards: &mut [Option<Vec<u8>>],
        original_len: usize,
    ) -> Result<Vec<u8>, ErasureError> {
        let k = self.codec.data_shards();
        self.codec.reconstruct(shards)?;
        let mut value = Vec::with_capacity(original_len);
        for shard in shards.iter().take(k) {
            let shard = shard.as_deref().expect("reconstruct fills every slot");
            let take = (original_len - value.len()).min(shard.len());
            value.extend_from_slice(&shard[..take]);
            if value.len() == original_len {
                break;
            }
        }
        Ok(value)
    }

    /// The value's bytes as its `k` data shards, in order, each cut to the
    /// part of the value it holds (padding dropped), so concatenating them
    /// yields the original `original_len` bytes.
    ///
    /// `present` holds `(index, shard)` survivors. Data shards among them
    /// are borrowed; only missing data shards are recovered (owned), via
    /// [`ErasureCodec::recover`]. No parity is derived and nothing is
    /// joined, so a reader can digest the value shard by shard.
    ///
    /// # Errors
    ///
    /// Returns [`ErasureError::TooManyErasures`] when fewer than `k` shards
    /// survive, or a shape error on malformed input.
    pub fn data_shards<'a>(
        &self,
        present: &[(usize, &'a [u8])],
        original_len: usize,
    ) -> Result<Vec<Cow<'a, [u8]>>, ErasureError> {
        let k = self.codec.data_shards();
        let shard_len = check_recover_shape(
            k,
            self.codec.parity_shards(),
            self.codec.shard_alignment(),
            present,
            &[],
        )?;
        let mut data: Vec<Option<Cow<'a, [u8]>>> = vec![None; k];
        for &(i, s) in present {
            if i < k {
                data[i] = Some(Cow::Borrowed(s));
            }
        }
        let missing: Vec<usize> = (0..k).filter(|&i| data[i].is_none()).collect();
        if !missing.is_empty() {
            let recovered = self.codec.recover(present, &missing)?;
            for (i, buf) in missing.into_iter().zip(recovered) {
                data[i] = Some(Cow::Owned(buf));
            }
        }
        Ok(data
            .into_iter()
            .enumerate()
            .map(|(i, shard)| {
                let take = original_len.saturating_sub(i * shard_len).min(shard_len);
                match shard.expect("every data shard is present or recovered") {
                    Cow::Borrowed(s) => Cow::Borrowed(&s[..take]),
                    Cow::Owned(mut v) => {
                        v.truncate(take);
                        Cow::Owned(v)
                    }
                }
            })
            .collect())
    }
}

impl From<Box<dyn ErasureCodec>> for Striper {
    fn from(codec: Box<dyn ErasureCodec>) -> Self {
        Striper {
            codec: Arc::from(codec),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::CodecKind;

    fn striper(kind: CodecKind) -> Striper {
        Striper::from(kind.build(3, 2).unwrap())
    }

    #[test]
    fn roundtrip_exact_lengths_all_codecs() {
        for kind in CodecKind::ALL {
            let s = striper(kind);
            for len in [0usize, 1, 2, 3, 7, 15, 16, 100, 1024, 4096, 10_000] {
                let value: Vec<u8> = (0..len).map(|i| (i * 31 + 7) as u8).collect();
                let stripe = s.encode_value(&value);
                let mut shards: Vec<Option<Vec<u8>>> =
                    stripe.shards.iter().cloned().map(Some).collect();
                let got = s.decode_value(&mut shards, stripe.original_len).unwrap();
                assert_eq!(got, value, "{kind} len={len}");
            }
        }
    }

    #[test]
    fn roundtrip_with_two_erasures_all_codecs() {
        for kind in CodecKind::ALL {
            let s = striper(kind);
            let value: Vec<u8> = (0..5000).map(|i| (i * 13) as u8).collect();
            let stripe = s.encode_value(&value);
            for a in 0..5 {
                for b in (a + 1)..5 {
                    let mut shards: Vec<Option<Vec<u8>>> =
                        stripe.shards.iter().cloned().map(Some).collect();
                    shards[a] = None;
                    shards[b] = None;
                    let got = s.decode_value(&mut shards, stripe.original_len).unwrap();
                    assert_eq!(got, value, "{kind} erased {a},{b}");
                }
            }
        }
    }

    #[test]
    fn shard_len_respects_alignment() {
        let s = striper(CodecKind::Liberation);
        let w = 3; // liberation k=3 -> smallest prime >= 3 is 3
        for len in [1usize, 10, 100, 12345] {
            let sl = s.shard_len_for(len);
            assert_eq!(sl % w, 0, "len={len}");
            assert!(sl * 3 >= len);
        }
    }

    #[test]
    fn empty_value_roundtrips() {
        let s = striper(CodecKind::RsVan);
        let stripe = s.encode_value(&[]);
        assert!(stripe.shard_len > 0);
        let mut shards: Vec<Option<Vec<u8>>> = stripe.shards.iter().cloned().map(Some).collect();
        shards[0] = None;
        let got = s.decode_value(&mut shards, 0).unwrap();
        assert!(got.is_empty());
    }

    #[test]
    fn decode_fails_cleanly_beyond_m_erasures() {
        let s = striper(CodecKind::CauchyRs);
        let stripe = s.encode_value(&[1, 2, 3, 4, 5]);
        let mut shards: Vec<Option<Vec<u8>>> = stripe.shards.iter().cloned().map(Some).collect();
        shards[0] = None;
        shards[1] = None;
        shards[2] = None;
        assert!(matches!(
            s.decode_value(&mut shards, stripe.original_len),
            Err(ErasureError::TooManyErasures { .. })
        ));
    }

    #[test]
    fn data_shards_borrow_survivors_and_recover_the_rest() {
        for kind in CodecKind::ALL {
            let s = striper(kind);
            for len in [0usize, 1, 100, 10_000] {
                let value: Vec<u8> = (0..len).map(|i| (i * 29 + 3) as u8).collect();
                let stripe = s.encode_value(&value);
                for lost in [vec![], vec![0], vec![1, 3], vec![0, 2], vec![3, 4]] {
                    let present: Vec<(usize, &[u8])> = (0..5)
                        .filter(|i| !lost.contains(i))
                        .map(|i| (i, stripe.shards[i].as_slice()))
                        .collect();
                    let data = s.data_shards(&present, len).unwrap();
                    assert_eq!(data.len(), 3);
                    assert_eq!(data.concat(), value, "{kind} len={len} lost {lost:?}");
                    for (i, shard) in data.iter().enumerate() {
                        let borrowed = matches!(shard, Cow::Borrowed(_));
                        assert_eq!(borrowed, !lost.contains(&i), "{kind} shard {i}");
                    }
                }
            }
        }
    }

    #[test]
    fn data_shards_fail_cleanly_beyond_m_erasures() {
        let s = striper(CodecKind::RsVan);
        let stripe = s.encode_value(&[1, 2, 3, 4, 5]);
        let present: Vec<(usize, &[u8])> = vec![(3, &stripe.shards[3]), (4, &stripe.shards[4])];
        assert!(matches!(
            s.data_shards(&present, 5),
            Err(ErasureError::TooManyErasures { .. })
        ));
    }

    #[test]
    fn repair_fills_missing_slots() {
        let s = striper(CodecKind::RsVan);
        let stripe = s.encode_value(&vec![9u8; 999]);
        let mut shards: Vec<Option<Vec<u8>>> = stripe.shards.iter().cloned().map(Some).collect();
        shards[4] = None;
        s.decode_value(&mut shards, stripe.original_len).unwrap();
        assert_eq!(shards[4].as_ref().unwrap(), &stripe.shards[4]);
    }
}
