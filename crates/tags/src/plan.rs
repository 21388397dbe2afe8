//! Compiled conversion plans for the scalar runs the DSM update path
//! ships.
//!
//! Eq. 1's `t_conv` (and much of `t_unpack`) used to be spent re-deciding
//! *how* to convert: every incoming update re-parsed its tag string and
//! re-walked the type tree before moving a single byte. A [`RunPlan`] is
//! that decision made once per (source element shape, destination element
//! shape, endianness pair). Applying it dispatches on the precomputed op
//! with no tag traversal, no string parsing and no allocation, collapses to
//! a `memcpy` exactly when element size and endianness agree, and converts
//! a strided frame row, CGT-RMR's `((8,1)(8,0),k)`, in one call.
//!
//! Semantics are pinned to the reference: `RunPlan::apply` must byte-match
//! [`crate::convert::convert_scalar_run`] (including its
//! [`ConversionStats`] accounting) — property-tested in
//! `tests/proptest_dsd.rs`.

use crate::convert::{convert_one, ConversionError, ConversionStats};
use hdsm_platform::endian::Endianness;
use hdsm_platform::scalar::ScalarClass;

/// How a contiguous scalar run moves from source to destination — decided
/// once at lowering time instead of per update.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOp {
    /// Same size, same endianness: one `memcpy` for the whole run.
    Memcpy,
    /// Same size, opposite endianness (and byte reversal is exact for the
    /// class): tight per-element byte swap.
    Swap,
    /// Different sizes (or an exotic float width): per-element
    /// read/check/write through [`convert_one`].
    Convert,
}

/// A compiled plan for one contiguous run of scalars of a single class.
///
/// This is the unit the DSM hot path uses: every wire update carries a
/// run-shaped tag (`(m,n)(0,0)`), so one `RunPlan` per (entry, sender
/// platform) converts arbitrarily many updates without touching the tag
/// again.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunPlan {
    /// Bytes per element on the sender.
    pub src_size: u32,
    /// Bytes per element on the receiver.
    pub dst_size: u32,
    /// Sender byte order.
    pub src_endian: Endianness,
    /// Receiver byte order.
    pub dst_endian: Endianness,
    /// Scalar class shared by every element of the run.
    pub class: ScalarClass,
    /// The precomputed dispatch decision.
    pub op: RunOp,
}

impl RunPlan {
    /// Lower a run description into a plan. Mirrors the dispatch order of
    /// [`crate::convert::convert_scalar_run`] exactly.
    pub fn lower(
        class: ScalarClass,
        src_size: u32,
        src_endian: Endianness,
        dst_size: u32,
        dst_endian: Endianness,
    ) -> RunPlan {
        let op = if src_size == dst_size && src_endian == dst_endian {
            RunOp::Memcpy
        } else if src_size == dst_size && (class != ScalarClass::Float || matches!(src_size, 4 | 8))
        {
            RunOp::Swap
        } else {
            RunOp::Convert
        };
        RunPlan {
            src_size,
            dst_size,
            src_endian,
            dst_endian,
            class,
            op,
        }
    }

    /// Apply the plan to `elems`, packed in `src`, into their hull `dst`,
    /// leaving the bytes between elements as they are. Byte-for-byte and
    /// stats-for-stats identical to [`crate::convert::convert_scalar_run`]
    /// on the elements — `tests/proptest_dsd.rs` holds the equivalence.
    ///
    /// # Panics
    /// If the pitch is below the destination's element size.
    pub fn apply(
        &self,
        src: &[u8],
        dst: &mut [u8],
        elems: impl Into<Elems>,
        stats: &mut ConversionStats,
    ) -> Result<(), ConversionError> {
        let Elems { count, pitch } = elems.into();
        let (ss, ds) = (self.src_size as usize, self.dst_size as usize);
        let pitch = pitch.unwrap_or(ds);
        assert!(pitch >= ds, "pitch {pitch} below the element size {ds}");
        let want_src = u64::from(self.src_size) * count;
        if src.len() as u64 != want_src {
            return Err(ConversionError::SrcSizeMismatch {
                expected: want_src,
                got: src.len() as u64,
            });
        }
        let hull = count.checked_sub(1).map(|n| n.saturating_mul(pitch as u64));
        let want_dst = hull.map_or(0, |h| h.saturating_add(ds as u64));
        if dst.len() as u64 != want_dst {
            return Err(ConversionError::DstSizeMismatch {
                expected: want_dst,
                got: dst.len() as u64,
            });
        }
        match self.op {
            RunOp::Memcpy => {
                match pitch == ds {
                    true => dst.copy_from_slice(src),
                    false => (dst.chunks_mut(pitch).zip(src.chunks_exact(ss)))
                        .for_each(|(d, s)| d[..ss].copy_from_slice(s)),
                }
                stats.memcpy_bytes += src.len() as u64;
            }
            RunOp::Swap => {
                swap_run(src, dst, ss, pitch);
                stats.scalars_converted += count;
                stats.scalars_swapped += count;
            }
            RunOp::Convert => {
                for (i, s) in src.chunks_exact(ss).enumerate() {
                    let d = &mut dst[i * pitch..][..ds];
                    convert_one(s, self.src_endian, d, self.dst_endian, self.class, stats)?;
                }
            }
        }
        Ok(())
    }
}

/// The elements [`RunPlan::apply`] converts: `count` of them, each `pitch`
/// destination bytes after the one before (a frame row's stride times the
/// element size). A bare count is dense.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Elems {
    /// Elements converted.
    pub count: u64,
    /// Bytes from one element's start to the next; `None` when dense.
    pub pitch: Option<usize>,
}

impl From<u64> for Elems {
    fn from(count: u64) -> Elems {
        Elems { count, pitch: None }
    }
}

impl From<(u64, usize)> for Elems {
    /// `(count, pitch)`.
    fn from((count, pitch): (u64, usize)) -> Elems {
        let pitch = Some(pitch);
        Elems { count, pitch }
    }
}

/// Reverse the bytes of every `size`-byte element of `src` into `dst`, one
/// element each `pitch` bytes (`dst` the hull of a whole number of
/// elements): one load, `swap_bytes` and store per element at the widths
/// scalars have, byte by byte at any other.
fn swap_run(src: &[u8], dst: &mut [u8], size: usize, pitch: usize) {
    macro_rules! swap_as {
        ($ty:ty) => {{
            let swap = |d: &mut [u8], s: &[u8]| {
                let v = <$ty>::from_ne_bytes(s.try_into().expect("chunk is one element"));
                d.copy_from_slice(&v.swap_bytes().to_ne_bytes());
            };
            let src = src.chunks_exact(size);
            if pitch == size {
                dst.chunks_exact_mut(size)
                    .zip(src)
                    .for_each(|(d, s)| swap(d, s));
            } else {
                dst.chunks_mut(pitch)
                    .zip(src)
                    .for_each(|(d, s)| swap(&mut d[..size], s));
            }
        }};
    }
    match size {
        2 => swap_as!(u16),
        4 => swap_as!(u32),
        8 => swap_as!(u64),
        _ => swap_run_bytewise(src, dst, size, pitch),
    }
}

/// [`swap_run`] at any width, and the reference its fast widths are
/// tested against.
fn swap_run_bytewise(src: &[u8], dst: &mut [u8], size: usize, pitch: usize) {
    for (d, c) in dst.chunks_mut(pitch).zip(src.chunks_exact(size)) {
        for (i, b) in c.iter().rev().enumerate() {
            d[i] = *b;
        }
    }
}

/// Per-entry memo of lowered [`RunPlan`]s keyed by the sender's
/// (element size, endianness).
///
/// One slot per index-table entry: a DSM node talks to a fixed set of peer
/// platforms and an entry's updates always arrive with the same sender
/// shape, so a single-slot memo hits essentially always after the first
/// update. Identity plans (local size, local endianness → `Memcpy`) are
/// primed at index-table build time by `GthvInstance::new`.
#[derive(Debug, Clone, Default)]
pub struct PlanCache {
    slots: Vec<Option<((u32, Endianness), RunPlan)>>,
}

impl PlanCache {
    /// Cache with one slot per entry.
    pub fn with_entries(n: usize) -> PlanCache {
        PlanCache {
            slots: vec![None; n],
        }
    }

    /// Fetch the plan for `(entry, src_size, src_endian)`, lowering and
    /// memoizing on miss.
    pub fn lookup(
        &mut self,
        entry: usize,
        src_size: u32,
        src_endian: Endianness,
        lower: impl FnOnce() -> RunPlan,
    ) -> RunPlan {
        if entry >= self.slots.len() {
            return lower();
        }
        if let Some((key, plan)) = &self.slots[entry] {
            if *key == (src_size, src_endian) {
                return *plan;
            }
        }
        let plan = lower();
        self.slots[entry] = Some(((src_size, src_endian), plan));
        plan
    }

    /// Install a plan for `(entry, src_size, src_endian)` eagerly.
    pub fn prime(&mut self, entry: usize, src_size: u32, src_endian: Endianness, plan: RunPlan) {
        if entry < self.slots.len() {
            self.slots[entry] = Some(((src_size, src_endian), plan));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convert::convert_scalar_run;

    const LE: Endianness = Endianness::Little;
    const BE: Endianness = Endianness::Big;

    #[test]
    fn run_lowering_picks_the_same_dispatch_as_convert_scalar_run() {
        assert_eq!(
            RunPlan::lower(ScalarClass::Signed, 4, LE, 4, LE).op,
            RunOp::Memcpy
        );
        assert_eq!(
            RunPlan::lower(ScalarClass::Signed, 4, LE, 4, BE).op,
            RunOp::Swap
        );
        assert_eq!(
            RunPlan::lower(ScalarClass::Float, 8, BE, 8, LE).op,
            RunOp::Swap
        );
        // Exotic float widths cannot byte-swap blindly.
        assert_eq!(
            RunPlan::lower(ScalarClass::Float, 2, BE, 2, LE).op,
            RunOp::Convert
        );
        assert_eq!(
            RunPlan::lower(ScalarClass::Unsigned, 4, LE, 8, BE).op,
            RunOp::Convert
        );
    }

    #[test]
    fn run_apply_matches_convert_scalar_run_bytes_and_stats() {
        let cases: [(ScalarClass, u32, Endianness, u32, Endianness); 4] = [
            (ScalarClass::Signed, 4, LE, 4, LE),
            (ScalarClass::Signed, 4, BE, 4, LE),
            (ScalarClass::Unsigned, 2, LE, 8, BE),
            (ScalarClass::Float, 4, BE, 8, LE),
        ];
        for (class, ss, se, ds, de) in cases {
            let count = 9u64;
            let src: Vec<u8> = (0..ss as usize * count as usize)
                .map(|i| (i % 100) as u8)
                .collect();
            let mut want = vec![0u8; ds as usize * count as usize];
            let mut want_stats = ConversionStats::default();
            convert_scalar_run(
                &src,
                ss,
                se,
                &mut want,
                ds,
                de,
                class,
                count,
                &mut want_stats,
            )
            .unwrap();
            let plan = RunPlan::lower(class, ss, se, ds, de);
            let mut got = vec![0u8; want.len()];
            let mut got_stats = ConversionStats::default();
            plan.apply(&src, &mut got, count, &mut got_stats).unwrap();
            assert_eq!(got, want, "{class:?} {ss}{se:?}->{ds}{de:?}");
            assert_eq!(got_stats, want_stats);
        }
    }

    proptest::proptest! {
        #[test]
        fn swap_matches_the_byte_loop_at_every_width(
            size in proptest::sample::select(vec![1usize, 2, 3, 4, 8, 16]),
            gap in 0usize..3,
            bytes in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..512),
        ) {
            let src = &bytes[..bytes.len() / size * size];
            let (n, pitch) = (src.len() / size, size + gap);
            let hull = n.saturating_sub(1) * pitch + size.min(src.len());
            let mut want = vec![0xAAu8; hull];
            swap_run_bytewise(src, &mut want, size, pitch);
            let mut got = vec![0xAAu8; hull];
            swap_run(src, &mut got, size, pitch);
            proptest::prop_assert_eq!(got, want);
        }
    }

    #[test]
    fn a_run_whose_payload_disagrees_with_its_count_is_rejected_unwritten() {
        for (ss, se, ds, de) in [(4, LE, 4, LE), (4, BE, 4, LE), (4, BE, 8, LE)] {
            let plan = RunPlan::lower(ScalarClass::Signed, ss, se, ds, de);
            let mut dst = vec![0x55u8; ds as usize * 3];
            let mut stats = ConversionStats::default();
            assert_eq!(
                plan.apply(&[1u8; 11], &mut dst, 3u64, &mut stats),
                Err(ConversionError::SrcSizeMismatch {
                    expected: 12,
                    got: 11
                }),
                "{:?}",
                plan.op
            );
            assert!(dst.iter().all(|&b| b == 0x55), "{:?} wrote", plan.op);
            assert_eq!(stats, ConversionStats::default());
        }
    }

    #[test]
    fn plan_cache_memoizes_per_entry() {
        let mut cache = PlanCache::with_entries(2);
        let mut lowered = 0;
        let mk = |lowered: &mut u32| {
            *lowered += 1;
            RunPlan::lower(ScalarClass::Signed, 4, BE, 4, LE)
        };
        let p1 = cache.lookup(0, 4, BE, || mk(&mut lowered));
        let p2 = cache.lookup(0, 4, BE, || mk(&mut lowered));
        assert_eq!(p1, p2);
        assert_eq!(lowered, 1, "second lookup must hit the memo");
        // A different sender shape re-lowers and replaces the slot.
        cache.lookup(0, 8, BE, || mk(&mut lowered));
        assert_eq!(lowered, 2);
        // Out-of-range entries degrade to lowering without caching.
        cache.lookup(7, 4, BE, || mk(&mut lowered));
        cache.lookup(7, 4, BE, || mk(&mut lowered));
        assert_eq!(lowered, 4);
    }
}
