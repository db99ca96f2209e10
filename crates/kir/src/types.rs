//! The KIR type system.
//!
//! The paper's field sensitivity distinguishes structure fields "by the byte
//! offsets from the base pointer" (§7, "Value-flow Analysis"); [`StructDef`]
//! computes those offsets with a conventional C layout (natural alignment).

use std::fmt;
use std::sync::Arc;

/// A KIR type.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Type {
    /// `void` — only valid as a return type or behind a pointer.
    Void,
    /// 32-bit signed integer (`int`, also used for `enum` values).
    Int,
    /// 64-bit signed integer (`long`).
    Long,
    /// 32-bit unsigned integer (`unsigned`, `unsigned int`).
    UInt,
    /// 64-bit unsigned integer (`unsigned long`).
    ULong,
    /// 8-bit character.
    Char,
    /// Boolean.
    Bool,
    /// Pointer to a pointee type.
    Ptr(Arc<Type>),
    /// Fixed-size array.
    Array(Arc<Type>, u64),
    /// Named struct or union type (resolved against [`StructDef`]s). The
    /// tag is shared, so cloning a type (which the checker does for every
    /// typed expression) never copies it.
    Struct(Arc<str>),
    /// Function type; appears behind `Ptr` for function pointers. The
    /// signature is shared: every call's callee is typed with the callee's
    /// signature, and cloning it must not copy its parameter list.
    Func(Arc<FuncSig>),
    /// Placeholder produced during error recovery.
    Error,
}

impl Type {
    /// Size of a value of this type in bytes under the KIR ABI.
    ///
    /// Struct sizes need the registry and are answered by
    /// [`StructRegistry::size_of`]; this returns `None` for them.
    pub fn scalar_size(&self) -> Option<u64> {
        Some(match self {
            Type::Void => 0,
            Type::Int | Type::UInt => 4,
            Type::Long | Type::ULong => 8,
            Type::Char | Type::Bool => 1,
            Type::Ptr(_) | Type::Func(_) => 8,
            Type::Array(elem, n) => elem.scalar_size()? * n,
            Type::Struct(_) | Type::Error => return None,
        })
    }

    /// Natural alignment in bytes; structs are conservatively 8-aligned.
    pub fn align(&self) -> u64 {
        match self {
            Type::Char | Type::Bool => 1,
            Type::Int | Type::UInt => 4,
            Type::Array(elem, _) => elem.align(),
            Type::Void | Type::Error => 1,
            _ => 8,
        }
    }

    /// True for any of the integer-like scalar types (including `bool` and
    /// `char`, matching C's usual arithmetic conversions).
    pub fn is_integral(&self) -> bool {
        matches!(
            self,
            Type::Int | Type::Long | Type::UInt | Type::ULong | Type::Char | Type::Bool
        )
    }

    /// True for pointer types (including function pointers).
    pub fn is_pointer(&self) -> bool {
        matches!(self, Type::Ptr(_))
    }

    /// The pointee of a pointer type, or the element of an array (arrays
    /// decay in expression contexts).
    pub fn pointee(&self) -> Option<&Type> {
        match self {
            Type::Ptr(inner) => Some(inner),
            Type::Array(elem, _) => Some(elem),
            _ => None,
        }
    }

    /// Whether two types are compatible for assignment under KIR's lenient
    /// kernel-C rules: integral types interconvert, `NULL`/integers convert
    /// to pointers, `void*` converts to any pointer, and identical types
    /// always match.
    pub fn assignable_from(&self, rhs: &Type) -> bool {
        if self == rhs || matches!(self, Type::Error) || matches!(rhs, Type::Error) {
            return true;
        }
        match (self, rhs) {
            (a, b) if a.is_integral() && b.is_integral() => true,
            (Type::Ptr(_), b) if b.is_integral() => true, // NULL and casts of 0
            (a, Type::Ptr(_)) if a.is_integral() => true, // pointer-to-int idioms
            (Type::Ptr(a), Type::Ptr(b)) => {
                matches!(a.as_ref(), Type::Void)
                    || matches!(b.as_ref(), Type::Void)
                    || a == b
                    // Function pointers with matching signatures or erased
                    // signatures interconvert.
                    || matches!((a.as_ref(), b.as_ref()), (Type::Func(_), Type::Func(_)))
            }
            (Type::Ptr(_), Type::Array(..)) => true, // array decay
            (Type::Bool, _) | (_, Type::Bool) => true,
            _ => false,
        }
    }
}

impl fmt::Display for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Type::Void => write!(f, "void"),
            Type::Int => write!(f, "int"),
            Type::Long => write!(f, "long"),
            Type::UInt => write!(f, "unsigned"),
            Type::ULong => write!(f, "unsigned long"),
            Type::Char => write!(f, "char"),
            Type::Bool => write!(f, "bool"),
            Type::Ptr(inner) => write!(f, "{inner}*"),
            Type::Array(elem, n) => write!(f, "{elem}[{n}]"),
            Type::Struct(name) => write!(f, "struct {name}"),
            Type::Func(sig) => {
                write!(f, "{}(", sig.ret)?;
                for (i, p) in sig.params.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{p}")?;
                }
                write!(f, ")")
            }
            Type::Error => write!(f, "<error>"),
        }
    }
}

/// Signature of a function or function pointer.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct FuncSig {
    /// Return type.
    pub ret: Type,
    /// Parameter types in order.
    pub params: Vec<Type>,
    /// Whether extra trailing arguments are accepted (`...`).
    pub variadic: bool,
}

/// A field of a struct with its computed layout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Field {
    /// Field name.
    pub name: String,
    /// Field type.
    pub ty: Type,
    /// Byte offset from the struct base (the identity the paper's
    /// field-sensitive analysis keys on).
    pub offset: u64,
}

/// A struct (or union — all fields at offset 0) definition with layout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StructDef {
    /// Struct tag.
    pub name: String,
    /// Fields in declaration order with byte offsets.
    pub fields: Vec<Field>,
    /// Total size in bytes, including tail padding.
    pub size: u64,
    /// Whether this was declared as a `union`.
    pub is_union: bool,
}

impl StructDef {
    /// Finds a field by name.
    pub fn field(&self, name: &str) -> Option<&Field> {
        self.fields.iter().find(|f| f.name == name)
    }

    /// Finds a field by byte offset.
    pub fn field_at(&self, offset: u64) -> Option<&Field> {
        self.fields.iter().find(|f| f.offset == offset)
    }
}

/// A collection of struct definitions for layout queries.
#[derive(Debug, Default, Clone)]
pub struct StructRegistry {
    defs: std::collections::HashMap<String, StructDef>,
}

impl StructRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a definition, replacing any prior one with the same tag.
    pub fn insert(&mut self, def: StructDef) {
        self.defs.insert(def.name.clone(), def);
    }

    /// Looks up a struct by tag.
    pub fn get(&self, name: &str) -> Option<&StructDef> {
        self.defs.get(name)
    }

    /// Iterates all definitions in arbitrary order.
    pub fn iter(&self) -> impl Iterator<Item = &StructDef> {
        self.defs.values()
    }

    /// Number of registered definitions.
    pub fn len(&self) -> usize {
        self.defs.len()
    }

    /// True when no structs are registered.
    pub fn is_empty(&self) -> bool {
        self.defs.is_empty()
    }

    /// Size in bytes of any type, resolving struct tags through the registry.
    pub fn size_of(&self, ty: &Type) -> u64 {
        match ty {
            Type::Struct(name) => self.defs.get(&**name).map(|d| d.size).unwrap_or(8),
            Type::Array(elem, n) => self.size_of(elem) * n,
            other => other.scalar_size().unwrap_or(8),
        }
    }

    /// Computes the layout of a struct from `(name, type)` field pairs and
    /// registers it.
    pub fn define(
        &mut self,
        name: &str,
        fields: Vec<(String, Type)>,
        is_union: bool,
    ) -> &StructDef {
        let mut laid = Vec::with_capacity(fields.len());
        let mut offset = 0u64;
        let mut max_align = 1u64;
        let mut max_size = 0u64;
        for (fname, fty) in fields {
            let align = fty.align();
            max_align = max_align.max(align);
            let size = self.size_of(&fty);
            let field_offset = if is_union {
                0
            } else {
                offset = round_up(offset, align);
                let at = offset;
                offset += size;
                at
            };
            max_size = max_size.max(size);
            laid.push(Field {
                name: fname,
                ty: fty,
                offset: field_offset,
            });
        }
        let total = if is_union {
            round_up(max_size, max_align)
        } else {
            round_up(offset, max_align)
        };
        self.insert(StructDef {
            name: name.to_string(),
            fields: laid,
            size: total.max(1),
            is_union,
        });
        self.defs.get(name).expect("just inserted")
    }
}

fn round_up(v: u64, align: u64) -> u64 {
    debug_assert!(align.is_power_of_two() || align == 1);
    v.div_ceil(align.max(1)) * align.max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_sizes() {
        assert_eq!(Type::Int.scalar_size(), Some(4));
        assert_eq!(Type::Ptr(Arc::new(Type::Void)).scalar_size(), Some(8));
        assert_eq!(Type::Array(Arc::new(Type::Int), 4).scalar_size(), Some(16));
        assert_eq!(Type::Struct("s".into()).scalar_size(), None);
    }

    #[test]
    fn layout_with_padding() {
        let mut reg = StructRegistry::new();
        let def = reg.define(
            "mix",
            vec![
                ("c".into(), Type::Char),
                ("x".into(), Type::Int),
                ("p".into(), Type::Ptr(Arc::new(Type::Void))),
            ],
            false,
        );
        assert_eq!(def.field("c").unwrap().offset, 0);
        assert_eq!(def.field("x").unwrap().offset, 4);
        assert_eq!(def.field("p").unwrap().offset, 8);
        assert_eq!(def.size, 16);
    }

    #[test]
    fn union_layout_overlaps() {
        let mut reg = StructRegistry::new();
        let def = reg.define(
            "u",
            vec![("a".into(), Type::Int), ("b".into(), Type::Long)],
            true,
        );
        assert_eq!(def.field("a").unwrap().offset, 0);
        assert_eq!(def.field("b").unwrap().offset, 0);
        assert_eq!(def.size, 8);
    }

    #[test]
    fn nested_struct_size() {
        let mut reg = StructRegistry::new();
        reg.define("inner", vec![("x".into(), Type::Long)], false);
        let outer = reg.define(
            "outer",
            vec![
                ("i".into(), Type::Struct("inner".into())),
                ("y".into(), Type::Int),
            ],
            false,
        );
        assert_eq!(outer.field("i").unwrap().offset, 0);
        assert_eq!(outer.field("y").unwrap().offset, 8);
        assert_eq!(outer.size, 16);
    }

    #[test]
    fn assignability_rules() {
        let vp = Type::Ptr(Arc::new(Type::Void));
        let ip = Type::Ptr(Arc::new(Type::Int));
        assert!(ip.assignable_from(&vp));
        assert!(vp.assignable_from(&ip));
        assert!(ip.assignable_from(&Type::Int)); // NULL-as-0 idiom
        assert!(Type::Long.assignable_from(&Type::Int));
        assert!(!ip.assignable_from(&Type::Ptr(Arc::new(Type::Long))));
    }

    #[test]
    fn field_lookup_by_offset() {
        let mut reg = StructRegistry::new();
        reg.define(
            "s",
            vec![("a".into(), Type::Long), ("b".into(), Type::Long)],
            false,
        );
        let def = reg.get("s").unwrap();
        assert_eq!(def.field_at(8).unwrap().name, "b");
        assert!(def.field_at(4).is_none());
    }

    #[test]
    fn display_types() {
        let fp = Type::Ptr(Arc::new(Type::Func(Arc::new(FuncSig {
            ret: Type::Int,
            params: vec![Type::Ptr(Arc::new(Type::Struct("vb".into())))],
            variadic: false,
        }))));
        assert_eq!(fp.to_string(), "int(struct vb*)*");
    }
}
