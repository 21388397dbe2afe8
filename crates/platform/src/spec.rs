//! Platform specifications.
//!
//! A [`PlatformSpec`] is everything the DSM needs to know about a machine to
//! lay out, diff, tag, ship and convert its data: byte order, scalar sizes
//! and alignments, page size, and a relative CPU-speed factor used by the
//! figure harnesses when reporting per-platform times.
//!
//! The two presets that matter for the paper's evaluation are
//! [`PlatformSpec::linux_x86`] (the authors' 2.4 GHz Pentium 4 running
//! Linux) and [`PlatformSpec::solaris_sparc`] (their Sun Fire V440). Extra
//! presets exercise size heterogeneity (ILP32 vs LP64) beyond what the paper
//! tested.

use crate::endian::Endianness;
use crate::scalar::ScalarKind;
use std::fmt;
use std::sync::Arc;

/// Data model of a platform: how wide are `long` and pointers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataModel {
    /// `int`, `long` and pointers are all 32-bit (classic 32-bit Unix).
    Ilp32,
    /// `long` and pointers are 64-bit, `int` stays 32-bit (64-bit Unix).
    Lp64,
}

/// A complete simulated platform description.
///
/// Cheap to clone (`Arc` internally via [`Platform`]); compare with `==` —
/// two nodes are **homogeneous** iff their specs are data-layout equal
/// (endianness, data model and alignment quirks), which is what decides
/// between the `memcpy` fast path and full CGT-RMR conversion.
#[derive(Debug, Clone, PartialEq)]
pub struct PlatformSpec {
    /// Identifier, e.g. `"linux-x86"`.
    pub name: String,
    /// Byte order.
    pub endian: Endianness,
    /// Pointer/long width model.
    pub model: DataModel,
    /// VM page size in bytes (4096 on x86, 8192 on SPARC).
    pub page_size: usize,
    /// `double` (and `long long`) alignment: 4 on i386 System V, 8 elsewhere.
    pub eight_byte_align: usize,
    /// Relative CPU speed vs the paper's Linux P4 (1.0 = P4 2.4 GHz;
    /// the Sun Fire V440's 1.28 GHz US-IIIi ≈ 0.53). Used **only** for
    /// reporting in figure harnesses, never in protocol logic.
    pub cpu_factor: f64,
}

/// Shared handle to a [`PlatformSpec`].
pub type Platform = Arc<PlatformSpec>;

impl fmt::Display for PlatformSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({}, {}, {}B pages)",
            self.name,
            self.endian.label(),
            match self.model {
                DataModel::Ilp32 => "ILP32",
                DataModel::Lp64 => "LP64",
            },
            self.page_size
        )
    }
}

impl PlatformSpec {
    /// The paper's Linux machine: 32-bit x86, little-endian, 4 KiB pages.
    /// i386 System V ABI aligns `double`/`long long` to 4 bytes.
    pub fn linux_x86() -> Platform {
        Arc::new(PlatformSpec {
            name: "linux-x86".into(),
            endian: Endianness::Little,
            model: DataModel::Ilp32,
            page_size: 4096,
            eight_byte_align: 4,
            cpu_factor: 1.0,
        })
    }

    /// The paper's Sun machine: 32-bit SPARC V8 ABI, big-endian, 8 KiB pages,
    /// natural (8-byte) alignment for 8-byte scalars, slower clock.
    pub fn solaris_sparc() -> Platform {
        Arc::new(PlatformSpec {
            name: "solaris-sparc".into(),
            endian: Endianness::Big,
            model: DataModel::Ilp32,
            page_size: 8192,
            eight_byte_align: 8,
            cpu_factor: 1.28 / 2.4,
        })
    }

    /// A modern 64-bit Linux machine (LP64, little-endian).
    pub fn linux_x86_64() -> Platform {
        Arc::new(PlatformSpec {
            name: "linux-x86_64".into(),
            endian: Endianness::Little,
            model: DataModel::Lp64,
            page_size: 4096,
            eight_byte_align: 8,
            cpu_factor: 1.4,
        })
    }

    /// 64-bit Solaris on UltraSPARC (LP64, big-endian, 8 KiB pages).
    pub fn solaris_sparc64() -> Platform {
        Arc::new(PlatformSpec {
            name: "solaris-sparc64".into(),
            endian: Endianness::Big,
            model: DataModel::Lp64,
            page_size: 8192,
            eight_byte_align: 8,
            cpu_factor: 0.6,
        })
    }

    /// Little-endian 32-bit ARM (EABI): same byte order and data model as
    /// linux-x86 but with *natural* 8-byte alignment for `double`/`long
    /// long` — a platform pair that is same-endian yet **not**
    /// memcpy-compatible, because struct padding differs. The paper's
    /// testbed never exercised this case; the tag comparison catches it.
    pub fn linux_arm() -> Platform {
        Arc::new(PlatformSpec {
            name: "linux-arm".into(),
            endian: Endianness::Little,
            model: DataModel::Ilp32,
            page_size: 4096,
            eight_byte_align: 8,
            cpu_factor: 0.4,
        })
    }

    /// Big-endian AIX/POWER-style ILP32 platform with 4 KiB pages — used in
    /// tests to separate "endianness differs" from "page size differs".
    pub fn aix_power() -> Platform {
        Arc::new(PlatformSpec {
            name: "aix-power".into(),
            endian: Endianness::Big,
            model: DataModel::Ilp32,
            page_size: 4096,
            eight_byte_align: 8,
            cpu_factor: 0.8,
        })
    }

    /// Look up a preset by name (used by example/bench CLI arguments).
    pub fn by_name(name: &str) -> Option<Platform> {
        match name {
            "linux-x86" => Some(Self::linux_x86()),
            "solaris-sparc" => Some(Self::solaris_sparc()),
            "linux-x86_64" => Some(Self::linux_x86_64()),
            "solaris-sparc64" => Some(Self::solaris_sparc64()),
            "linux-arm" => Some(Self::linux_arm()),
            "aix-power" => Some(Self::aix_power()),
            _ => None,
        }
    }

    /// All presets (for exhaustive cross-platform tests).
    pub fn presets() -> Vec<Platform> {
        vec![
            Self::linux_x86(),
            Self::solaris_sparc(),
            Self::linux_x86_64(),
            Self::solaris_sparc64(),
            Self::linux_arm(),
            Self::aix_power(),
        ]
    }

    /// Size in bytes of a scalar kind on this platform.
    pub fn size_of(&self, kind: ScalarKind) -> usize {
        match kind {
            ScalarKind::Char | ScalarKind::UChar => 1,
            ScalarKind::Short | ScalarKind::UShort => 2,
            ScalarKind::Int | ScalarKind::UInt | ScalarKind::Float => 4,
            ScalarKind::Long | ScalarKind::ULong | ScalarKind::Ptr => match self.model {
                DataModel::Ilp32 => 4,
                DataModel::Lp64 => 8,
            },
            ScalarKind::LongLong | ScalarKind::ULongLong | ScalarKind::Double => 8,
        }
    }

    /// Alignment in bytes of a scalar kind on this platform.
    pub fn align_of(&self, kind: ScalarKind) -> usize {
        let size = self.size_of(kind);
        if size == 8 {
            self.eight_byte_align
        } else {
            size
        }
    }

    /// Two platforms are *data-homogeneous* when raw bytes can be `memcpy`'d
    /// between them without conversion: same byte order, same data model,
    /// same alignment quirks. Page size does **not** matter — write
    /// detection is node-local (a machine is always homogeneous to itself,
    /// paper §4).
    pub fn homogeneous_with(&self, other: &PlatformSpec) -> bool {
        self.endian == other.endian
            && self.model == other.model
            && self.eight_byte_align == other.eight_byte_align
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_platforms_are_heterogeneous() {
        let l = PlatformSpec::linux_x86();
        let s = PlatformSpec::solaris_sparc();
        assert!(!l.homogeneous_with(&s));
        assert!(l.homogeneous_with(&l));
        assert!(s.homogeneous_with(&s));
    }

    #[test]
    fn ilp32_vs_lp64_sizes() {
        let l32 = PlatformSpec::linux_x86();
        let l64 = PlatformSpec::linux_x86_64();
        assert_eq!(l32.size_of(ScalarKind::Ptr), 4);
        assert_eq!(l64.size_of(ScalarKind::Ptr), 8);
        assert_eq!(l32.size_of(ScalarKind::Long), 4);
        assert_eq!(l64.size_of(ScalarKind::Long), 8);
        assert_eq!(l32.size_of(ScalarKind::Int), 4);
        assert_eq!(l64.size_of(ScalarKind::Int), 4);
        // Same endianness but different model → heterogeneous.
        assert!(!l32.homogeneous_with(&l64));
    }

    #[test]
    fn i386_double_alignment_quirk() {
        let l = PlatformSpec::linux_x86();
        let s = PlatformSpec::solaris_sparc();
        assert_eq!(l.align_of(ScalarKind::Double), 4);
        assert_eq!(s.align_of(ScalarKind::Double), 8);
        assert_eq!(l.align_of(ScalarKind::Int), 4);
    }

    #[test]
    fn sparc_pages_are_8k() {
        assert_eq!(PlatformSpec::solaris_sparc().page_size, 8192);
        assert_eq!(PlatformSpec::linux_x86().page_size, 4096);
    }

    #[test]
    fn by_name_roundtrip() {
        for p in PlatformSpec::presets() {
            let found = PlatformSpec::by_name(&p.name).expect("preset by name");
            assert_eq!(*found, *p);
        }
        assert!(PlatformSpec::by_name("vax-vms").is_none());
    }

    #[test]
    fn same_endian_different_alignment_is_heterogeneous() {
        // linux-x86 and linux-arm agree on byte order and sizes but not
        // on struct padding — raw memcpy would misplace fields.
        let x86 = PlatformSpec::linux_x86();
        let arm = PlatformSpec::linux_arm();
        assert_eq!(x86.endian, arm.endian);
        assert_eq!(
            x86.size_of(ScalarKind::Double),
            arm.size_of(ScalarKind::Double)
        );
        assert_ne!(
            x86.align_of(ScalarKind::Double),
            arm.align_of(ScalarKind::Double)
        );
        assert!(!x86.homogeneous_with(&arm));
    }

    #[test]
    fn page_size_difference_does_not_break_homogeneity() {
        // Same layout rules, different page size → still memcpy-compatible.
        let s = PlatformSpec::solaris_sparc();
        let a = PlatformSpec::aix_power();
        assert!(s.homogeneous_with(&a));
        assert_ne!(s.page_size, a.page_size);
    }
}
