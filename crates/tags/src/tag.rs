//! The tag AST and its textual form.
//!
//! Paper §3.2: a tag is a sequence of `(m,n)` tuples where
//!
//! * `(m,n)` with `m,n > 0` is a run of `n` scalars of `m` bytes each;
//! * `(m,-n)` is a run of `n` pointers of `m` bytes each;
//! * `(m,0)` is a padding slot of `m` bytes, `(0,0)` meaning "no padding";
//! * `((…)(…),n)` nests a whole tag as the `m` of an aggregate repeated
//!   `n` times.
//!
//! The MigThread preprocessor interleaves a padding tuple after every data
//! tuple (Figure 3 shows `(0,0)` after each field), and the generator in
//! [`crate::generate`] keeps that convention.

use std::fmt;

/// One item of a tag.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum TagItem {
    /// `(size, count)` — `count` scalars of `size` bytes.
    Scalar {
        /// Bytes per scalar.
        size: u32,
        /// Number of scalars (> 0).
        count: u32,
    },
    /// `(size, -count)` — `count` pointers of `size` bytes.
    Pointer {
        /// Bytes per pointer on the originating platform.
        size: u32,
        /// Number of pointers (> 0, rendered negative).
        count: u32,
    },
    /// `(bytes, 0)` — a padding slot (`(0,0)` = no padding).
    Padding {
        /// Bytes of padding (may be 0).
        bytes: u32,
    },
    /// `((…)…,count)` — an aggregate repeated `count` times.
    Aggregate {
        /// The nested tag describing one instance.
        items: Vec<TagItem>,
        /// Number of instances (> 0).
        count: u32,
    },
}

/// A complete tag: an ordered sequence of items.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Tag(pub Vec<TagItem>);

impl TagItem {
    /// Total bytes this item covers in the byte image it describes.
    pub fn byte_size(&self) -> u64 {
        match self {
            TagItem::Scalar { size, count } | TagItem::Pointer { size, count } => {
                u64::from(*size) * u64::from(*count)
            }
            TagItem::Padding { bytes } => u64::from(*bytes),
            TagItem::Aggregate { items, count } => {
                items.iter().map(TagItem::byte_size).sum::<u64>() * u64::from(*count)
            }
        }
    }

    /// Number of scalar (incl. pointer) elements described, ignoring padding.
    pub fn element_count(&self) -> u64 {
        match self {
            TagItem::Scalar { count, .. } | TagItem::Pointer { count, .. } => u64::from(*count),
            TagItem::Padding { .. } => 0,
            TagItem::Aggregate { items, count } => {
                items.iter().map(TagItem::element_count).sum::<u64>() * u64::from(*count)
            }
        }
    }
}

impl Tag {
    /// Empty tag.
    pub fn new() -> Tag {
        Tag(Vec::new())
    }

    /// Total bytes the whole tag covers (data + padding).
    pub fn byte_size(&self) -> u64 {
        self.0.iter().map(TagItem::byte_size).sum()
    }

    /// Total scalar elements (data only).
    pub fn element_count(&self) -> u64 {
        self.0.iter().map(TagItem::element_count).sum()
    }

    /// Visit every *leaf slot* in order: `(offset, slot)` where a slot is a
    /// scalar run, pointer run or padding run. Aggregates are expanded.
    pub fn for_each_slot<F: FnMut(u64, &TagItem)>(&self, f: &mut F) {
        fn walk<F: FnMut(u64, &TagItem)>(items: &[TagItem], mut base: u64, f: &mut F) -> u64 {
            for item in items {
                match item {
                    TagItem::Aggregate { items, count } => {
                        for _ in 0..*count {
                            base = walk(items, base, f);
                        }
                    }
                    leaf => {
                        f(base, leaf);
                        base += leaf.byte_size();
                    }
                }
            }
            base
        }
        walk(&self.0, 0, f);
    }

    /// Flatten into leaf slots, expanding aggregates and merging nothing.
    pub fn flatten(&self) -> Vec<(u64, TagItem)> {
        let mut out = Vec::new();
        self.for_each_slot(&mut |off, item| out.push((off, item.clone())));
        out
    }
}

impl fmt::Display for TagItem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TagItem::Scalar { size, count } => write!(f, "({size},{count})"),
            TagItem::Pointer { size, count } => write!(f, "({size},-{count})"),
            TagItem::Padding { bytes } => write!(f, "({bytes},0)"),
            TagItem::Aggregate { items, count } => {
                write!(f, "(")?;
                for item in items {
                    write!(f, "{item}")?;
                }
                write!(f, ",{count})")
            }
        }
    }
}

impl fmt::Display for Tag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for item in &self.0 {
            write!(f, "{item}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scalar(size: u32, count: u32) -> TagItem {
        TagItem::Scalar { size, count }
    }

    #[test]
    fn display_matches_paper_syntax() {
        assert_eq!(scalar(4, 56169).to_string(), "(4,56169)");
        assert_eq!(TagItem::Pointer { size: 4, count: 1 }.to_string(), "(4,-1)");
        assert_eq!(TagItem::Padding { bytes: 0 }.to_string(), "(0,0)");
        assert_eq!(TagItem::Padding { bytes: 8 }.to_string(), "(8,0)");
        let agg = TagItem::Aggregate {
            items: vec![scalar(4, 1), TagItem::Padding { bytes: 0 }],
            count: 3,
        };
        assert_eq!(agg.to_string(), "((4,1)(0,0),3)");
    }

    #[test]
    fn byte_size_and_elements() {
        let t = Tag(vec![
            TagItem::Pointer { size: 4, count: 1 },
            TagItem::Padding { bytes: 0 },
            scalar(4, 10),
            TagItem::Padding { bytes: 4 },
        ]);
        assert_eq!(t.byte_size(), 4 + 40 + 4);
        assert_eq!(t.element_count(), 11);
    }

    #[test]
    fn aggregate_size_multiplies() {
        let agg = TagItem::Aggregate {
            items: vec![
                scalar(8, 1),
                TagItem::Padding { bytes: 0 },
                scalar(1, 1),
                TagItem::Padding { bytes: 7 },
            ],
            count: 3,
        };
        assert_eq!(agg.byte_size(), 16 * 3);
        assert_eq!(agg.element_count(), 6);
    }

    #[test]
    fn slot_walk_expands_aggregates_with_offsets() {
        let t = Tag(vec![TagItem::Aggregate {
            items: vec![scalar(4, 1), TagItem::Padding { bytes: 4 }],
            count: 2,
        }]);
        let slots = t.flatten();
        assert_eq!(slots.len(), 4);
        assert_eq!(slots[0].0, 0);
        assert_eq!(slots[1].0, 4); // padding
        assert_eq!(slots[2].0, 8); // second instance scalar
        assert_eq!(slots[3].0, 12);
    }
}
