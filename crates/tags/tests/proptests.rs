//! Property tests for CGT-RMR: tag grammar round-trips and
//! receiver-makes-right conversion identities across all platform pairs.

use hdsm_platform::ctype::{CType, StructBuilder};
use hdsm_platform::endian::Endianness;
use hdsm_platform::layout::{LayoutKind, TypeLayout};
use hdsm_platform::scalar::{ScalarClass, ScalarKind};
use hdsm_platform::spec::PlatformSpec;
use hdsm_platform::value::Value;
use hdsm_tags::convert::{convert_block, ConversionStats};
use hdsm_tags::generate::tag_for;
use hdsm_tags::parse::parse_tag;
use hdsm_tags::tag::{Tag, TagItem};
use hdsm_tags::wire::reference::{pack_grouped, run_shape, unpack_updates, updates_of, WireUpdate};
use hdsm_tags::wire::{unpack_batch, FrameWriter, GroupHead, RunGroup, UpdateBatch};
use proptest::prelude::*;

/// `updates` through the sender's frame writer: a group a maximal run of
/// consecutive updates of one entry, byte order, element size and kind.
fn write_frame(updates: &[WireUpdate]) -> UpdateBatch {
    let head = |u: &WireUpdate| {
        let (size, _, is_ptr) = run_shape(&u.tag).expect("one run");
        GroupHead {
            entry: u.entry,
            endian: u.endian,
            is_ptr,
            size,
        }
    };
    let groups: Vec<&[WireUpdate]> = updates.chunk_by(|a, b| head(a) == head(b)).collect();
    let runs = |g: &[WireUpdate]| -> Vec<(u64, u64, u64)> {
        g.iter()
            .map(|u| (u.elem_offset, run_shape(&u.tag).unwrap().1.into(), 1))
            .collect()
    };
    let mut w = FrameWriter::default();
    for g in &groups {
        w.plan_group(g[0].entry, head(&g[0]).size, runs(g));
    }
    for g in groups {
        w.begin_group(head(&g[0]));
        g.iter().for_each(|u| w.put_payload(&u.data, 1));
    }
    w.finish()
}

fn any_kind() -> impl Strategy<Value = ScalarKind> {
    prop::sample::select(ScalarKind::ALL.to_vec())
}

fn any_ctype(depth: u32) -> BoxedStrategy<CType> {
    let leaf = any_kind().prop_map(CType::Scalar);
    leaf.prop_recursive(depth, 16, 3, |inner| {
        prop_oneof![
            (inner.clone(), 1usize..4).prop_map(|(t, n)| CType::array(t, n)),
            prop::collection::vec(inner, 1..4).prop_map(|tys| {
                let mut b = StructBuilder::new("T");
                for (i, t) in tys.into_iter().enumerate() {
                    b = b.field(format!("f{i}"), t);
                }
                CType::Struct(b.build().unwrap())
            }),
        ]
    })
    .boxed()
}

/// Values representable on *every* modelled platform (ints within i32/u32,
/// pointer offsets < 2^32 - 1, f32-representable floats).
fn portable_value(layout: &TypeLayout) -> BoxedStrategy<Value> {
    match layout.kind.clone() {
        LayoutKind::Scalar(kind) => match kind.class() {
            ScalarClass::Signed => match layout.size {
                1 => (i8::MIN as i128..=i8::MAX as i128)
                    .prop_map(Value::Int)
                    .boxed(),
                2 => (i16::MIN as i128..=i16::MAX as i128)
                    .prop_map(Value::Int)
                    .boxed(),
                _ => (i32::MIN as i128..=i32::MAX as i128)
                    .prop_map(Value::Int)
                    .boxed(),
            },
            ScalarClass::Unsigned => match layout.size {
                1 => (0i128..=u8::MAX as i128).prop_map(Value::Int).boxed(),
                2 => (0i128..=u16::MAX as i128).prop_map(Value::Int).boxed(),
                _ => (0i128..=u32::MAX as i128).prop_map(Value::Int).boxed(),
            },
            ScalarClass::Float => {
                if layout.size == 4 {
                    any::<f32>()
                        .prop_filter("finite", |f| f.is_finite())
                        .prop_map(|f| Value::Float(f as f64))
                        .boxed()
                } else {
                    any::<f64>()
                        .prop_filter("finite", |f| f.is_finite())
                        .prop_map(Value::Float)
                        .boxed()
                }
            }
            ScalarClass::Pointer => prop_oneof![
                Just(Value::Ptr(None)),
                (0u64..0xffff_fffe).prop_map(|o| Value::Ptr(Some(o))),
            ]
            .boxed(),
        },
        LayoutKind::Array { elem, len } => {
            prop::collection::vec(portable_value(&elem), len as usize..=len as usize)
                .prop_map(Value::Array)
                .boxed()
        }
        LayoutKind::Struct { fields, .. } => fields
            .iter()
            .map(|f| portable_value(&f.layout))
            .collect::<Vec<_>>()
            .prop_map(Value::Struct)
            .boxed(),
    }
}

/// Float-free types for the exact-value identity test: doubles narrow to
/// f32 on platforms where `float` is 4 bytes only when the kind is Float,
/// and Float stays 4 bytes everywhere, so floats actually round-trip too —
/// but we keep a dedicated generator to pin integer semantics tightly.
fn convert_roundtrip(ty: &CType, v: &Value, a: &PlatformSpec, b: &PlatformSpec) {
    let la = TypeLayout::compute(ty, a);
    let lb = TypeLayout::compute(ty, b);
    let src = v.encode_vec(&la, a).expect("encode src");
    // A → B
    let mut mid = vec![0u8; lb.size as usize];
    let mut stats = ConversionStats::default();
    convert_block(&la, a, &src, &lb, b, &mut mid, &mut stats).expect("convert A->B");
    // B → A
    let mut back = vec![0u8; la.size as usize];
    convert_block(&lb, b, &mid, &la, a, &mut back, &mut stats).expect("convert B->A");
    let logical = Value::decode(&la, a, &back).expect("decode");
    assert_eq!(&logical, v, "{} -> {} -> {}", a.name, b.name, a.name);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Tag display → parse is the identity for generated tags on every
    /// platform.
    #[test]
    fn tag_display_parse_roundtrip(ty in any_ctype(3)) {
        for p in PlatformSpec::presets() {
            let t = tag_for(&TypeLayout::compute(&ty, &p));
            let s = t.to_string();
            prop_assert_eq!(parse_tag(&s).unwrap(), t);
        }
    }

    /// Generated tag byte size equals layout size on every platform.
    #[test]
    fn tag_size_matches_layout(ty in any_ctype(3)) {
        for p in PlatformSpec::presets() {
            let l = TypeLayout::compute(&ty, &p);
            let t = tag_for(&l);
            prop_assert_eq!(t.byte_size(), l.size, "on {}", p.name);
        }
    }

    /// Element count from the tag equals the type's scalar-leaf count.
    #[test]
    fn tag_elements_match_scalar_count(ty in any_ctype(3)) {
        let p = PlatformSpec::linux_x86();
        let t = tag_for(&TypeLayout::compute(&ty, &p));
        prop_assert_eq!(t.element_count(), ty.scalar_count());
    }

    /// Conversion A→B→A restores the logical value for every ordered pair
    /// of modelled platforms.
    #[test]
    fn rmr_roundtrip_identity(
        (ty, v) in any_ctype(2).prop_flat_map(|ty| {
            let l = TypeLayout::compute(&ty, &PlatformSpec::linux_x86());
            portable_value(&l).prop_map(move |v| (ty.clone(), v))
        })
    ) {
        let presets = PlatformSpec::presets();
        for a in &presets {
            for b in &presets {
                convert_roundtrip(&ty, &v, a, b);
            }
        }
    }

    /// Conversion preserves logical equality directly: decode(convert(x))
    /// == decode(x) for any A→B.
    #[test]
    fn rmr_preserves_logical_value(
        (ty, v) in any_ctype(2).prop_flat_map(|ty| {
            let l = TypeLayout::compute(&ty, &PlatformSpec::solaris_sparc());
            portable_value(&l).prop_map(move |v| (ty.clone(), v))
        })
    ) {
        let a = PlatformSpec::solaris_sparc();
        let b = PlatformSpec::linux_x86_64();
        let la = TypeLayout::compute(&ty, &a);
        let lb = TypeLayout::compute(&ty, &b);
        let src = v.encode_vec(&la, &a).unwrap();
        let mut dst = vec![0u8; lb.size as usize];
        let mut stats = ConversionStats::default();
        convert_block(&la, &a, &src, &lb, &b, &mut dst, &mut stats).unwrap();
        prop_assert_eq!(Value::decode(&lb, &b, &dst).unwrap(), v);
    }

    /// Homogeneous conversion is byte-identity and pure memcpy.
    #[test]
    fn homogeneous_conversion_is_identity(
        (ty, v) in any_ctype(2).prop_flat_map(|ty| {
            let l = TypeLayout::compute(&ty, &PlatformSpec::solaris_sparc());
            portable_value(&l).prop_map(move |v| (ty.clone(), v))
        })
    ) {
        let s = PlatformSpec::solaris_sparc();
        let a = PlatformSpec::aix_power();
        let ls = TypeLayout::compute(&ty, &s);
        let la = TypeLayout::compute(&ty, &a);
        let src = v.encode_vec(&ls, &s).unwrap();
        let mut dst = vec![0u8; la.size as usize];
        let mut stats = ConversionStats::default();
        convert_block(&ls, &s, &src, &la, &a, &mut dst, &mut stats).unwrap();
        prop_assert_eq!(&dst, &src);
        prop_assert_eq!(stats.scalars_converted, 0);
        prop_assert_eq!(stats.memcpy_bytes, src.len() as u64);
    }

    /// The batch format round-trips arbitrary updates — data and pointer
    /// runs of any width and byte order, dense runs mixed in one group
    /// with sequences of one-element runs at one gap — and the borrowed
    /// views of the kept frame show, update for update, what the reference
    /// decoder materialises from it. The frame writer writes the reference
    /// packer's frame, strided groups included, and hands over the rows
    /// the check of that frame decodes.
    #[test]
    fn wire_batch_views_equal_the_reference_decoder(
        frames in prop::collection::vec(
            (
                (0u32..4, any::<bool>(), 0u8..8),
                // (offset, elements, one-element repeats, gap)
                prop::collection::vec((0u64..3_000_000, 1u64..200, 0u64..5, 2u64..300), 1..5),
            ),
            0..8
        )
    ) {
        let update = |(entry, big, shape): (u32, bool, u8), elem_offset: u64, n: u64| {
            let (tag, bytes) = match shape {
                0 => (hdsm_tags::generate::tag_for_scalar_run(ScalarKind::Short, 2, n), n * 2),
                1 => (Tag(vec![
                    TagItem::Pointer { size: 4, count: n as u32 },
                    TagItem::Padding { bytes: 0 },
                ]), n * 4),
                2 | 3 => (hdsm_tags::generate::tag_for_scalar_run(ScalarKind::Double, 8, n), n * 8),
                _ => (hdsm_tags::generate::tag_for_scalar_run(ScalarKind::Int, 4, n), n * 4),
            };
            WireUpdate {
                // Entries 200 and 300 take two-byte varints.
                entry: entry * 100,
                elem_offset,
                endian: if big { Endianness::Big } else { Endianness::Little },
                tag,
                data: (0..bytes).map(|i| ((i + elem_offset) * 31 % 256) as u8).collect(),
            }
        };
        let mut updates = Vec::new();
        for (head, runs) in frames {
            for (offset, n, repeats, gap) in runs {
                match repeats {
                    0 | 1 => updates.push(update(head, offset, n)),
                    _ => updates.extend((0..repeats).map(|k| update(head, offset + k * gap, 1))),
                }
            }
        }
        let packed = pack_grouped(&updates);
        let batch = unpack_batch(packed.clone()).unwrap();
        prop_assert_eq!(&updates_of(&batch), &updates);
        prop_assert_eq!(&unpack_updates(packed.clone()).unwrap(), &updates);
        prop_assert_eq!(batch.len(), updates.len());
        let bytes: usize = updates.iter().map(|u| u.data.len()).sum();
        prop_assert_eq!(batch.payload_bytes(), bytes as u64);
        let written = write_frame(&updates);
        prop_assert_eq!(written.frame(), &packed);
        // The writer's rows are the ones the check decodes from its frame:
        // heads, rows and payload, group for group.
        let (sent, got): (Vec<RunGroup>, Vec<RunGroup>) =
            (written.groups().collect(), batch.groups().collect());
        prop_assert_eq!(sent, got);
    }

    /// Parser never panics on arbitrary ASCII input.
    #[test]
    fn parser_total_on_ascii(s in "[(),0-9-]{0,64}") {
        let _ = parse_tag(&s);
    }

    /// Parser accepts exactly what Display produces for random tags.
    #[test]
    fn random_tag_ast_roundtrip(items in prop::collection::vec(
        prop_oneof![
            (1u32..16, 1u32..1000).prop_map(|(m, n)| TagItem::Scalar { size: m, count: n }),
            (1u32..16, 1u32..8).prop_map(|(m, n)| TagItem::Pointer { size: m, count: n }),
            (0u32..16).prop_map(|m| TagItem::Padding { bytes: m }),
        ],
        0..8
    )) {
        let t = Tag(items);
        prop_assert_eq!(parse_tag(&t.to_string()).unwrap(), t);
    }
}
