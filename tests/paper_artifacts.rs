//! Tests that pin the paper's concrete artifacts: the Figure 3 tag
//! strings, the Figure 4 structure, Table 1, and the qualitative claims
//! of §5 (homogeneous memcpy vs heterogeneous conversion dominance).

use hdsm::dsd::index_table::IndexTable;
use hdsm::platform::ctype::{paper_figure4_struct, CType, StructBuilder};
use hdsm::platform::layout::TypeLayout;
use hdsm::platform::scalar::ScalarKind;
use hdsm::platform::spec::PlatformSpec;
use hdsm::tags::generate::tag_for;

#[test]
fn figure3_tag_strings() {
    // MThP tag from Figure 3: two pointers on 32-bit Linux.
    let mthp = CType::Struct(
        StructBuilder::new("MThP")
            .scalar("a", ScalarKind::Ptr)
            .scalar("b", ScalarKind::Ptr)
            .build()
            .unwrap(),
    );
    let t = tag_for(&TypeLayout::compute(&mthp, &PlatformSpec::linux_x86()));
    assert_eq!(t.to_string(), "(4,-1)(0,0)(4,-1)(0,0)");
    assert_eq!(t.to_string().len(), 22);
    // The paper declares `char MThP_heter[41]` — room for 40 characters
    // plus NUL; both the ILP32 form (22 chars) and the LP64 form fit:
    let t64 = tag_for(&TypeLayout::compute(&mthp, &PlatformSpec::linux_x86_64()));
    assert!(t64.to_string().len() <= 40);
}

#[test]
fn figure4_structure_and_table1() {
    let ty = CType::Struct(paper_figure4_struct());
    let table = IndexTable::build(&ty, 0x4005_8000, &PlatformSpec::linux_x86());
    // The ten (address, size, number) rows of Table 1, in order.
    let flat: Vec<(u64, u32, i64)> = table
        .rows()
        .iter()
        .flat_map(|r| vec![(r.addr, r.size, r.number()), (r.end(), r.padding_after, 0)])
        .collect();
    assert_eq!(
        flat,
        vec![
            (0x4005_8000, 4, -1),
            (0x4005_8004, 0, 0),
            (0x4005_8004, 4, 56169),
            (0x4008_eda8, 0, 0),
            (0x4008_eda8, 4, 56169),
            (0x400c_5b4c, 0, 0),
            (0x400c_5b4c, 4, 56169),
            (0x400f_c8f0, 0, 0),
            (0x400f_c8f0, 4, 1),
            (0x400f_c8f4, 0, 0),
        ]
    );
}

#[test]
fn gthv_tag_covers_whole_structure_on_every_platform() {
    let ty = CType::Struct(paper_figure4_struct());
    for p in PlatformSpec::presets() {
        let layout = TypeLayout::compute(&ty, &p);
        let tag = tag_for(&layout);
        assert_eq!(tag.byte_size(), layout.size, "on {}", p.name);
        assert_eq!(tag.element_count(), ty.scalar_count(), "on {}", p.name);
    }
}

#[test]
fn section5_shape_claims_hold_at_reduced_scale() {
    // The qualitative claims of §5, checked at a size small enough for a
    // debug-mode test run (the full sizes run in the `paper` bin):
    // 1. only the heterogeneous pair converts; the homogeneous pairs copy,
    // 2. pack/unpack are comparatively small,
    // 3. LU ships more bytes per run than matmul.
    use hdsm::apps::workload::{paper_pairs, SyncMode};
    use hdsm::apps::Kernel;
    use hdsm_bench::run_cell;

    let n = 24;
    let matmul = Kernel::Matmul(SyncMode::Barrier);
    let [ll, ss, sl] = paper_pairs().each_ref().map(|p| run_cell(matmul, n, p));
    assert!(ll.verified && ss.verified && sl.verified);

    // Claim 1, as the mechanism rather than a wall-clock ratio (compiled
    // swap plans run near memcpy speed in a release build): LL and SS
    // byte-swap nothing — everything but the `GThP` pointer moves by
    // memcpy — while SL swaps scalars.
    for homogeneous in [&ll, &ss] {
        let conv = homogeneous.conv;
        assert_eq!(conv.scalars_swapped, 0, "{}: {conv:?}", homogeneous.pair);
        assert!(conv.memcpy_bytes > 0, "{}: {conv:?}", homogeneous.pair);
    }
    assert!(sl.conv.scalars_swapped > 0, "SL: {:?}", sl.conv);

    // Claim 2: pack+unpack < half of total in the heterogeneous pair.
    let pack_unpack = sl.raw.t_pack + sl.raw.t_unpack;
    assert!(
        pack_unpack < sl.raw.c_share(),
        "pack/unpack must not dominate"
    );

    // Claim 3: LU moves more update bytes than matmul at the same size.
    let lu = run_cell(Kernel::Lu, n, &paper_pairs()[2]);
    assert!(lu.verified);
    assert!(
        lu.raw.bytes_applied > sl.raw.bytes_applied,
        "LU {} bytes vs matmul {} bytes",
        lu.raw.bytes_applied,
        sl.raw.bytes_applied
    );
}

#[test]
fn homogeneity_decision_matches_paper_platform_pairs() {
    // LL and SS are homogeneous, SL is not — the decision the tag-string
    // comparison encodes.
    use hdsm::apps::workload::paper_pairs;
    let pairs = paper_pairs();
    assert!(pairs[0].home.homogeneous_with(&pairs[0].remote));
    assert!(pairs[1].home.homogeneous_with(&pairs[1].remote));
    assert!(!pairs[2].home.homogeneous_with(&pairs[2].remote));
}
