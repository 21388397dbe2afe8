//! The C type model.
//!
//! MigThread's preprocessor works on C source: it collects global variables
//! into one structure (`GThV`) and thread-local state into `MThV`/`MThP`
//! structures, then emits tag-generation code for them. We replace the
//! preprocessor with an explicit description of those structures using this
//! small type algebra: scalars, fixed-length arrays and (possibly nested)
//! structs.

use crate::scalar::ScalarKind;
use std::fmt;
use std::sync::Arc;

/// A C type as declared in the (conceptual) source program.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum CType {
    /// A scalar (`int`, `double`, pointer, …).
    Scalar(ScalarKind),
    /// A fixed-length array `T[len]`. `len == 0` is rejected by validation.
    Array(Box<CType>, usize),
    /// A struct with named fields, laid out in declaration order.
    Struct(Arc<StructDef>),
}

/// A named field of a struct.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Field {
    /// Field name (diagnostics / index-table dumps).
    pub name: String,
    /// Field type.
    pub ty: CType,
}

/// A struct definition.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct StructDef {
    /// Struct tag name, e.g. `"GThV_t"`.
    pub name: String,
    /// Fields in declaration order.
    pub fields: Vec<Field>,
}

impl CType {
    /// Convenience constructor for `T[len]`.
    pub fn array(elem: CType, len: usize) -> CType {
        CType::Array(Box::new(elem), len)
    }

    /// Convenience constructor for a scalar.
    pub const fn scalar(kind: ScalarKind) -> CType {
        CType::Scalar(kind)
    }

    /// Total number of *scalar leaves* in this type (array elements count
    /// individually). Drives sizing of index tables and conversion buffers.
    pub fn scalar_count(&self) -> u64 {
        match self {
            CType::Scalar(_) => 1,
            CType::Array(elem, len) => elem.scalar_count() * (*len as u64),
            CType::Struct(def) => def.fields.iter().map(|f| f.ty.scalar_count()).sum(),
        }
    }

    /// Depth of nesting (scalar = 0). Used to bound recursion in generators.
    pub fn depth(&self) -> usize {
        match self {
            CType::Scalar(_) => 0,
            CType::Array(elem, _) => 1 + elem.depth(),
            CType::Struct(def) => 1 + def.fields.iter().map(|f| f.ty.depth()).max().unwrap_or(0),
        }
    }

    /// Validate the type: non-zero array lengths, non-empty structs.
    pub fn validate(&self) -> Result<(), TypeError> {
        match self {
            CType::Scalar(_) => Ok(()),
            CType::Array(elem, len) => {
                if *len == 0 {
                    return Err(TypeError::ZeroLengthArray);
                }
                elem.validate()
            }
            CType::Struct(def) => {
                if def.fields.is_empty() {
                    return Err(TypeError::EmptyStruct(def.name.clone()));
                }
                let mut names = std::collections::HashSet::new();
                for f in &def.fields {
                    if !names.insert(f.name.as_str()) {
                        return Err(TypeError::DuplicateField(def.name.clone(), f.name.clone()));
                    }
                    f.ty.validate()?;
                }
                Ok(())
            }
        }
    }
}

impl fmt::Display for CType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CType::Scalar(k) => write!(f, "{}", k.c_name()),
            CType::Array(elem, len) => write!(f, "{elem}[{len}]"),
            CType::Struct(def) => write!(f, "struct {}", def.name),
        }
    }
}

/// Errors from type validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TypeError {
    /// `T[0]` is not a shareable type.
    ZeroLengthArray,
    /// A struct with no fields.
    EmptyStruct(String),
    /// Two fields with the same name in one struct.
    DuplicateField(String, String),
}

impl fmt::Display for TypeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TypeError::ZeroLengthArray => write!(f, "zero-length array"),
            TypeError::EmptyStruct(s) => write!(f, "struct {s} has no fields"),
            TypeError::DuplicateField(s, fld) => {
                write!(f, "struct {s} has duplicate field {fld}")
            }
        }
    }
}

impl std::error::Error for TypeError {}

/// Builder for struct definitions, mirroring how the MigThread preprocessor
/// would accumulate the collected globals into `GThV_t`.
#[derive(Debug, Default)]
pub struct StructBuilder {
    name: String,
    fields: Vec<Field>,
}

impl StructBuilder {
    /// Start a struct named `name`.
    pub fn new(name: impl Into<String>) -> Self {
        StructBuilder {
            name: name.into(),
            fields: Vec::new(),
        }
    }

    /// Append a field.
    pub fn field(mut self, name: impl Into<String>, ty: CType) -> Self {
        self.fields.push(Field {
            name: name.into(),
            ty,
        });
        self
    }

    /// Append a scalar field.
    pub fn scalar(self, name: impl Into<String>, kind: ScalarKind) -> Self {
        self.field(name, CType::Scalar(kind))
    }

    /// Append an array-of-scalar field.
    pub fn array(self, name: impl Into<String>, kind: ScalarKind, len: usize) -> Self {
        self.field(name, CType::array(CType::Scalar(kind), len))
    }

    /// Finish, validating the definition.
    pub fn build(self) -> Result<Arc<StructDef>, TypeError> {
        let def = Arc::new(StructDef {
            name: self.name,
            fields: self.fields,
        });
        CType::Struct(def.clone()).validate()?;
        Ok(def)
    }
}

/// The example global structure from the paper's Figure 4:
///
/// ```c
/// struct GThV_t {
///     void *GThP;
///     int A[237*237];
///     int B[237*237];
///     int C[237*237];
///     int n;
/// } *GThV;
/// ```
pub fn paper_figure4_struct() -> Arc<StructDef> {
    StructBuilder::new("GThV_t")
        .scalar("GThP", ScalarKind::Ptr)
        .array("A", ScalarKind::Int, 237 * 237)
        .array("B", ScalarKind::Int, 237 * 237)
        .array("C", ScalarKind::Int, 237 * 237)
        .scalar("n", ScalarKind::Int)
        .build()
        .expect("figure-4 struct is valid")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure4_struct_shape() {
        let def = paper_figure4_struct();
        assert_eq!(def.name, "GThV_t");
        assert_eq!(def.fields.len(), 5);
        assert_eq!(def.fields[1].name, "A");
        assert_eq!(
            def.fields[1].ty,
            CType::array(CType::Scalar(ScalarKind::Int), 56169)
        );
        assert_eq!(CType::Struct(def).scalar_count(), 1 + 3 * 56169 + 1);
    }

    #[test]
    fn validation_rejects_bad_types() {
        assert_eq!(
            CType::array(CType::Scalar(ScalarKind::Int), 0).validate(),
            Err(TypeError::ZeroLengthArray)
        );
        let empty = Arc::new(StructDef {
            name: "E".into(),
            fields: vec![],
        });
        assert!(matches!(
            CType::Struct(empty).validate(),
            Err(TypeError::EmptyStruct(_))
        ));
        let dup = StructBuilder::new("D")
            .scalar("x", ScalarKind::Int)
            .scalar("x", ScalarKind::Int)
            .build();
        assert!(matches!(dup, Err(TypeError::DuplicateField(_, _))));
    }

    #[test]
    fn nested_depth_and_count() {
        let inner = StructBuilder::new("Inner")
            .scalar("a", ScalarKind::Char)
            .array("b", ScalarKind::Double, 3)
            .build()
            .unwrap();
        let outer = StructBuilder::new("Outer")
            .field("pair", CType::array(CType::Struct(inner.clone()), 2))
            .scalar("tail", ScalarKind::Short)
            .build()
            .unwrap();
        let t = CType::Struct(outer);
        assert_eq!(t.scalar_count(), 2 * (1 + 3) + 1);
        // outer struct -> array -> inner struct -> array-of-double
        assert_eq!(t.depth(), 4);
    }

    #[test]
    fn display_forms() {
        assert_eq!(CType::Scalar(ScalarKind::Int).to_string(), "int");
        assert_eq!(
            CType::array(CType::Scalar(ScalarKind::Double), 4).to_string(),
            "double[4]"
        );
    }
}
