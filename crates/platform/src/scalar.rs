//! The C scalar type universe.
//!
//! CGT-RMR tags (paper §3.2) carry only *size and count*; the semantic class
//! of each element (signed / unsigned / float / pointer) comes from the
//! shared type description of the global structure, which is identical on
//! every node because the same program runs everywhere (SPMD). This module
//! enumerates the scalar kinds of that shared description.

/// A C scalar type as written in the source program.
///
/// Sizes are *not* part of the kind — they depend on the platform (ILP32 vs
/// LP64, etc.) and are resolved through [`crate::spec::PlatformSpec`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScalarKind {
    /// `char` — treated as signed 1-byte, per both reference platforms.
    Char,
    /// `unsigned char`.
    UChar,
    /// `short`.
    Short,
    /// `unsigned short`.
    UShort,
    /// `int`.
    Int,
    /// `unsigned int`.
    UInt,
    /// `long` (4 bytes ILP32, 8 bytes LP64).
    Long,
    /// `unsigned long`.
    ULong,
    /// `long long` (8 bytes everywhere we model).
    LongLong,
    /// `unsigned long long`.
    ULongLong,
    /// `float` (IEEE-754 binary32).
    Float,
    /// `double` (IEEE-754 binary64).
    Double,
    /// Any data pointer. CGT-RMR renders pointers with a negative count,
    /// `(m,-n)`; across nodes they are translated through the index table
    /// because raw addresses are meaningless on another machine.
    Ptr,
}

/// Conversion class of a scalar — what the receiver-makes-right routine has
/// to do with its bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScalarClass {
    /// Two's-complement signed integer: byte-swap + sign-extend / truncate.
    Signed,
    /// Unsigned integer: byte-swap + zero-extend / truncate.
    Unsigned,
    /// IEEE-754 float: byte-swap; widen/narrow through `f64` if sizes differ.
    Float,
    /// Pointer: translated via the application-level index table, never
    /// copied bit-for-bit across heterogeneous nodes.
    Pointer,
}

impl ScalarKind {
    /// Every kind, for exhaustive tests and property generators.
    pub const ALL: [ScalarKind; 13] = [
        ScalarKind::Char,
        ScalarKind::UChar,
        ScalarKind::Short,
        ScalarKind::UShort,
        ScalarKind::Int,
        ScalarKind::UInt,
        ScalarKind::Long,
        ScalarKind::ULong,
        ScalarKind::LongLong,
        ScalarKind::ULongLong,
        ScalarKind::Float,
        ScalarKind::Double,
        ScalarKind::Ptr,
    ];

    /// The conversion class of this kind.
    pub const fn class(self) -> ScalarClass {
        match self {
            ScalarKind::Char
            | ScalarKind::Short
            | ScalarKind::Int
            | ScalarKind::Long
            | ScalarKind::LongLong => ScalarClass::Signed,
            ScalarKind::UChar
            | ScalarKind::UShort
            | ScalarKind::UInt
            | ScalarKind::ULong
            | ScalarKind::ULongLong => ScalarClass::Unsigned,
            ScalarKind::Float | ScalarKind::Double => ScalarClass::Float,
            ScalarKind::Ptr => ScalarClass::Pointer,
        }
    }

    /// C source spelling (for diagnostics and generated index-table dumps).
    pub const fn c_name(self) -> &'static str {
        match self {
            ScalarKind::Char => "char",
            ScalarKind::UChar => "unsigned char",
            ScalarKind::Short => "short",
            ScalarKind::UShort => "unsigned short",
            ScalarKind::Int => "int",
            ScalarKind::UInt => "unsigned int",
            ScalarKind::Long => "long",
            ScalarKind::ULong => "unsigned long",
            ScalarKind::LongLong => "long long",
            ScalarKind::ULongLong => "unsigned long long",
            ScalarKind::Float => "float",
            ScalarKind::Double => "double",
            ScalarKind::Ptr => "void *",
        }
    }

    /// True if this is any integer kind (signed or unsigned).
    pub const fn is_integer(self) -> bool {
        matches!(self.class(), ScalarClass::Signed | ScalarClass::Unsigned)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classes_are_consistent() {
        assert_eq!(ScalarKind::Int.class(), ScalarClass::Signed);
        assert_eq!(ScalarKind::UInt.class(), ScalarClass::Unsigned);
        assert_eq!(ScalarKind::Double.class(), ScalarClass::Float);
        assert_eq!(ScalarKind::Ptr.class(), ScalarClass::Pointer);
    }

    #[test]
    fn all_covers_every_kind_once() {
        let mut seen = std::collections::HashSet::new();
        for k in ScalarKind::ALL {
            assert!(seen.insert(k), "duplicate kind {k:?}");
        }
        assert_eq!(seen.len(), 13);
    }

    #[test]
    fn integer_predicate() {
        assert!(ScalarKind::Char.is_integer());
        assert!(ScalarKind::ULongLong.is_integer());
        assert!(!ScalarKind::Float.is_integer());
        assert!(!ScalarKind::Ptr.is_integer());
    }
}
