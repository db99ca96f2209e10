//! The per-compilation name table.
//!
//! Every identifier a compilation sees — variables, functions, fields,
//! struct tags, labels, macro names — and every string literal's text is
//! interned once, by the lexer, into the [`NameTable`] the resulting
//! [`crate::TranslationUnit`] owns. From the lexer on, the frontend carries
//! [`Name`]s: `Copy` ids that compare and index in O(1). Text comes back
//! only where a name is shown (diagnostics, the pretty printer and the
//! hashes built on it) or stored as a `String` downstream (the IR).
//!
//! A [`Name`] means nothing outside its own table: two compilations may
//! give the same text different ids, so anything comparing ASTs across
//! compilations compares resolved text. The table lives exactly as long
//! as its unit and is never shared between units, so nothing in it
//! outlives a compilation.
//!
//! Input names are hashed with `std`'s keyed hasher: their text comes from
//! whoever wrote the source, and an unkeyed hash would let a crafted input
//! collide every name into one bucket. The lexer hashes each identifier
//! occurrence once; nothing after it hashes a name again.

use std::collections::HashMap;

/// An interned name: an index into the [`NameTable`] of the compilation
/// that produced it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Name(u32);

impl Name {
    /// The empty name, given to unnamed prototype parameters.
    pub const EMPTY: Name = Name(0);
    /// `__sizeof`: the callee of the parser's `sizeof expr` marker call,
    /// which the checker rewrites once the operand's type is known.
    pub const SIZEOF: Name = Name(1);

    /// The id as an index into per-name arrays.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The names of one compilation, interned in first-seen order.
#[derive(Debug, Clone)]
pub struct NameTable {
    texts: Vec<Box<str>>,
    ids: HashMap<Box<str>, Name>,
}

impl Default for NameTable {
    fn default() -> Self {
        Self::new()
    }
}

impl NameTable {
    /// A table holding only the reserved names ([`Name::EMPTY`] and
    /// [`Name::SIZEOF`]).
    pub fn new() -> Self {
        let mut table = NameTable {
            texts: Vec::new(),
            ids: HashMap::new(),
        };
        table.intern("");
        table.intern("__sizeof");
        table
    }

    /// The id of `text`, interning it on first sight.
    pub fn intern(&mut self, text: &str) -> Name {
        if let Some(&name) = self.ids.get(text) {
            return name;
        }
        let name = Name(u32::try_from(self.texts.len()).expect("fewer than 2^32 names"));
        self.texts.push(text.into());
        self.ids.insert(text.into(), name);
        name
    }

    /// The id of `text`, if this compilation has seen it.
    pub fn get(&self, text: &str) -> Option<Name> {
        self.ids.get(text).copied()
    }

    /// The text of a name of this table.
    pub fn text(&self, name: Name) -> &str {
        &self.texts[name.index()]
    }
}

/// A map keyed by [`Name`], stored as a vector indexed by id: lookups are
/// one bounds check, with no hashing.
#[derive(Debug, Clone)]
pub struct NameMap<T> {
    slots: Vec<Option<T>>,
}

impl<T> Default for NameMap<T> {
    fn default() -> Self {
        NameMap { slots: Vec::new() }
    }
}

impl<T> NameMap<T> {
    /// An empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// The value bound to `name`.
    pub fn get(&self, name: Name) -> Option<&T> {
        self.slots.get(name.index()).and_then(Option::as_ref)
    }

    /// True when `name` is bound.
    pub fn contains(&self, name: Name) -> bool {
        self.get(name).is_some()
    }

    /// Binds `name`, returning the value it replaces.
    pub fn insert(&mut self, name: Name, value: T) -> Option<T> {
        let i = name.index();
        if i >= self.slots.len() {
            self.slots.resize_with(i + 1, || None);
        }
        self.slots[i].replace(value)
    }

    /// Bound names and their values, in id order.
    pub fn iter(&self) -> impl Iterator<Item = (Name, &T)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, v)| v.as_ref().map(|v| (Name(i as u32), v)))
    }
}

impl<T> Extend<(Name, T)> for NameMap<T> {
    fn extend<I: IntoIterator<Item = (Name, T)>>(&mut self, iter: I) {
        for (name, value) in iter {
            self.insert(name, value);
        }
    }
}

/// Sentinel of [`Scopes`]: no binding.
const UNBOUND: u32 = u32::MAX;

/// Block-scoped bindings keyed by [`Name`], as the checker and lowering
/// keep them for locals: the innermost binding of a name is found in O(1),
/// and leaving a scope costs one step per binding it made. A redeclaration
/// shadows the earlier binding until its scope ends.
#[derive(Debug, Clone)]
pub struct Scopes<T> {
    /// Per name, the index of its innermost binding, or [`UNBOUND`].
    innermost: Vec<u32>,
    /// Live bindings, innermost last: the name, the binding it shadows,
    /// and the value.
    bindings: Vec<(Name, u32, T)>,
    /// Where each open scope's bindings start.
    marks: Vec<usize>,
}

impl<T> Default for Scopes<T> {
    fn default() -> Self {
        Scopes {
            innermost: Vec::new(),
            bindings: Vec::new(),
            marks: Vec::new(),
        }
    }
}

impl<T> Scopes<T> {
    /// No scopes open.
    pub fn new() -> Self {
        Self::default()
    }

    /// Opens a scope.
    pub fn push(&mut self) {
        self.marks.push(self.bindings.len());
    }

    /// Closes the innermost scope, dropping its bindings.
    pub fn pop(&mut self) {
        let mark = self.marks.pop().expect("pop of an open scope");
        while self.bindings.len() > mark {
            let (name, shadowed, _) = self.bindings.pop().expect("above the mark");
            self.innermost[name.index()] = shadowed;
        }
    }

    /// Binds `name` in the innermost scope.
    pub fn declare(&mut self, name: Name, value: T) {
        debug_assert!(!self.marks.is_empty(), "declare outside any scope");
        let i = name.index();
        if i >= self.innermost.len() {
            self.innermost.resize(i + 1, UNBOUND);
        }
        let at = u32::try_from(self.bindings.len()).expect("fewer than 2^32 bindings");
        self.bindings.push((name, self.innermost[i], value));
        self.innermost[i] = at;
    }

    /// The innermost binding of `name`.
    pub fn lookup(&self, name: Name) -> Option<&T> {
        match self.innermost.get(name.index()) {
            Some(&at) if at != UNBOUND => Some(&self.bindings[at as usize].2),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent_and_first_seen_ordered() {
        let mut t = NameTable::new();
        let a = t.intern("dev");
        let b = t.intern("len");
        assert_eq!(t.intern("dev"), a);
        assert!(a < b);
        assert_eq!(t.text(b), "len");
        assert_eq!(t.get("len"), Some(b));
        assert_eq!(t.get("nope"), None);
        assert_eq!(t.text(Name::EMPTY), "");
        assert_eq!(t.text(Name::SIZEOF), "__sizeof");
    }

    #[test]
    fn name_map_binds_by_id() {
        let mut t = NameTable::new();
        let (a, b) = (t.intern("a"), t.intern("b"));
        let mut m = NameMap::new();
        assert_eq!(m.insert(b, 2), None);
        assert_eq!(m.insert(b, 3), Some(2));
        assert_eq!(m.get(b), Some(&3));
        assert!(!m.contains(a));
        assert_eq!(m.iter().collect::<Vec<_>>(), vec![(b, &3)]);
    }

    #[test]
    fn scopes_shadow_and_restore() {
        let mut t = NameTable::new();
        let x = t.intern("x");
        let mut s = Scopes::new();
        s.push();
        s.declare(x, 1);
        s.push();
        assert_eq!(s.lookup(x), Some(&1));
        s.declare(x, 2);
        s.declare(x, 3);
        assert_eq!(s.lookup(x), Some(&3));
        s.pop();
        assert_eq!(s.lookup(x), Some(&1));
        s.pop();
        assert_eq!(s.lookup(x), None);
    }
}
