//! The traditional homogeneous twin/diff DSM baseline.
//!
//! Paper §4: "a basic DSM … \[takes\] a diff between the twin and the
//! current page. These differences can be propagated … and applied
//! directly to nodes owing to the fact that nodes are homogeneous to one
//! another." This module implements exactly that — raw byte diffs with no
//! index abstraction, no tags and no conversion — both as the correctness
//! baseline DSD must match on homogeneous clusters and as the ablation
//! comparator for the overhead the heterogeneity machinery adds
//! (`bench_baseline`).
//!
//! Its defining *limitation* is reproduced too: applying a raw diff across
//! platforms with different layout rules is a type-checked error here,
//! where the paper notes a real system would silently corrupt data.

use crate::gthv::GthvInstance;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use hdsm_memory::diff::diff_pages;
use hdsm_tags::wire::bounded_vec;
use std::fmt;

/// A raw byte diff: simulated address + replacement bytes. This is the
/// whole wire format of the baseline — note the absence of any type or
/// layout information.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawDiff {
    /// Simulated address of the first byte.
    pub addr: u64,
    /// Replacement bytes.
    pub bytes: Vec<u8>,
}

/// Errors from the baseline DSM.
#[derive(Debug, Clone, PartialEq)]
pub enum BaselineError {
    /// Sender and receiver are not layout-homogeneous — the baseline
    /// cannot function (this is the gap DSD exists to fill).
    Heterogeneous {
        /// Sender platform name.
        src: String,
        /// Receiver platform name.
        dst: String,
    },
    /// A diff fell outside the shared region.
    OutOfRange(u64),
    /// Malformed frame.
    BadFrame,
}

impl fmt::Display for BaselineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BaselineError::Heterogeneous { src, dst } => write!(
                f,
                "baseline DSM requires homogeneous nodes, got {src} -> {dst}"
            ),
            BaselineError::OutOfRange(a) => write!(f, "diff at {a:#x} out of range"),
            BaselineError::BadFrame => write!(f, "malformed raw-diff frame"),
        }
    }
}

impl std::error::Error for BaselineError {}

/// Extract raw diffs from a node's dirty pages (twin/diff only — no index
/// mapping, no coalescing beyond what the byte scan produces).
pub fn extract_raw_diffs(gthv: &GthvInstance) -> Vec<RawDiff> {
    diff_pages(gthv.space())
        .into_iter()
        .map(|run| RawDiff {
            addr: run.addr,
            bytes: gthv
                .space()
                .read(run.addr, run.len)
                .expect("diff run inside space")
                .to_vec(),
        })
        .collect()
}

/// Apply raw diffs from a homogeneous peer. `src_platform` is the sender's
/// platform name (checked — the baseline's homogeneity requirement).
pub fn apply_raw_diffs(
    gthv: &mut GthvInstance,
    src_platform: &hdsm_platform::spec::PlatformSpec,
    diffs: &[RawDiff],
) -> Result<(), BaselineError> {
    if !src_platform.homogeneous_with(gthv.platform()) {
        return Err(BaselineError::Heterogeneous {
            src: src_platform.name.clone(),
            dst: gthv.platform().name.clone(),
        });
    }
    for d in diffs {
        gthv.space_mut()
            .write_untracked(d.addr, &d.bytes)
            .map_err(|_| BaselineError::OutOfRange(d.addr))?;
    }
    Ok(())
}

/// Pack raw diffs for the wire (the baseline's `t_pack` equivalent).
pub fn pack_raw(diffs: &[RawDiff]) -> Bytes {
    let mut out =
        BytesMut::with_capacity(4 + diffs.iter().map(|d| 12 + d.bytes.len()).sum::<usize>());
    out.put_u32(diffs.len() as u32);
    for d in diffs {
        out.put_u64(d.addr);
        out.put_u32(d.bytes.len() as u32);
        out.put_slice(&d.bytes);
    }
    out.freeze()
}

/// Unpack raw diffs.
pub fn unpack_raw(mut buf: Bytes) -> Result<Vec<RawDiff>, BaselineError> {
    if buf.remaining() < 4 {
        return Err(BaselineError::BadFrame);
    }
    let n = buf.get_u32();
    let mut out = bounded_vec(n, 8 + 4, buf.remaining(), BaselineError::BadFrame)?;
    for _ in 0..n {
        if buf.remaining() < 12 {
            return Err(BaselineError::BadFrame);
        }
        let addr = buf.get_u64();
        let len = buf.get_u32() as usize;
        if buf.remaining() < len {
            return Err(BaselineError::BadFrame);
        }
        out.push(RawDiff {
            addr,
            bytes: buf.copy_to_bytes(len).to_vec(),
        });
    }
    if buf.has_remaining() {
        return Err(BaselineError::BadFrame);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gthv::GthvDef;
    use hdsm_platform::ctype::StructBuilder;
    use hdsm_platform::scalar::ScalarKind;
    use hdsm_platform::spec::{Platform, PlatformSpec};

    fn inst(p: Platform) -> GthvInstance {
        let def = GthvDef::new(
            StructBuilder::new("G")
                .array("xs", ScalarKind::Int, 256)
                .build()
                .unwrap(),
        )
        .unwrap();
        GthvInstance::new(def, p)
    }

    #[test]
    fn homogeneous_diff_propagation_works() {
        let mut a = inst(PlatformSpec::linux_x86());
        let mut b = inst(PlatformSpec::linux_x86());
        a.space_mut().protect_all();
        for i in 0..32 {
            a.write_int(0, i, 7 * i as i128).unwrap();
        }
        let diffs = extract_raw_diffs(&a);
        assert!(!diffs.is_empty());
        let packed = pack_raw(&diffs);
        let unpacked = unpack_raw(packed).unwrap();
        assert_eq!(unpacked, diffs);
        apply_raw_diffs(&mut b, a.platform(), &unpacked).unwrap();
        for i in 0..32 {
            assert_eq!(b.read_int(0, i).unwrap(), 7 * i as i128);
        }
    }

    #[test]
    fn heterogeneous_application_rejected() {
        let mut a = inst(PlatformSpec::linux_x86());
        let mut b = inst(PlatformSpec::solaris_sparc());
        a.space_mut().protect_all();
        a.write_int(0, 0, 1).unwrap();
        let diffs = extract_raw_diffs(&a);
        assert!(matches!(
            apply_raw_diffs(&mut b, a.platform(), &diffs),
            Err(BaselineError::Heterogeneous { .. })
        ));
    }

    #[test]
    fn baseline_equals_dsd_on_homogeneous_pair() {
        use crate::runs::abstract_diffs;
        use crate::update::{apply_batch, extract_updates};
        use hdsm_tags::convert::ConversionStats;

        let mut src = inst(PlatformSpec::linux_x86());
        let mut via_baseline = inst(PlatformSpec::linux_x86());
        let mut via_dsd = inst(PlatformSpec::linux_x86());
        src.space_mut().protect_all();
        for i in (0..256).step_by(3) {
            src.write_int(0, i, i as i128 - 100).unwrap();
        }

        let raw = extract_raw_diffs(&src);
        apply_raw_diffs(&mut via_baseline, src.platform(), &raw).unwrap();

        let runs = hdsm_memory::diff::diff_pages(src.space());
        let ranges = abstract_diffs(src.table(), &runs);
        let ups = extract_updates(&src, &ranges).unwrap();
        let mut stats = ConversionStats::default();
        apply_batch(&mut via_dsd, &ups, &mut stats).unwrap();

        assert_eq!(via_baseline.space().raw(), via_dsd.space().raw());
    }

    #[test]
    fn malformed_frames_rejected() {
        assert!(unpack_raw(Bytes::from_static(&[0, 0])).is_err());
        assert!(unpack_raw(Bytes::from_static(&[0, 0, 0, 1, 0, 0])).is_err());
        let mut extra = BytesMut::from(&pack_raw(&[])[..]);
        extra.put_u8(9);
        assert!(unpack_raw(extra.freeze()).is_err());
    }

    #[test]
    fn out_of_range_diff_rejected() {
        let mut b = inst(PlatformSpec::linux_x86());
        let bogus = RawDiff {
            addr: 0x1,
            bytes: vec![0xff],
        };
        assert!(matches!(
            apply_raw_diffs(&mut b, &PlatformSpec::linux_x86(), &[bogus]),
            Err(BaselineError::OutOfRange(_))
        ));
    }
}
