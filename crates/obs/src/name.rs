//! [`Name`]: one shared, immutable string per named candidate.
//!
//! A design-space sweep carries each configuration's name into every
//! result built from it — one design point per task, one objective point
//! per elimination, one ledger row per configuration. Holding the name as
//! a reference-counted `Arc<str>` makes each of those copies a pointer
//! copy instead of a heap allocation. The type lives in this crate because
//! it is the one every other workspace crate already depends on.

use std::borrow::Borrow;
use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

/// A shared, immutable name. Cloning copies a pointer; the text is
/// allocated once, where the name is created.
///
/// A `Name` behaves like the `str` it holds: it dereferences to `str`,
/// compares, orders and hashes by its text (as `Arc<str>` does, which
/// keeps `Borrow<str>` lookups consistent), and prints (`Display` and
/// `Debug`) exactly as the `str` would.
///
/// ```
/// use cordoba_obs::Name;
///
/// let name = Name::from("a48");
/// let copy = name.clone();
/// assert!(Name::ptr_eq(&name, &copy));
/// assert_eq!(copy, "a48");
/// assert_eq!(copy.as_bytes(), b"a48");
/// assert_eq!(format!("[{copy:>5}]"), "[  a48]");
/// ```
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Name(Arc<str>);

impl Name {
    /// The name's text.
    #[must_use]
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// Whether `a` and `b` share one allocation (not merely equal text).
    #[must_use]
    pub fn ptr_eq(a: &Self, b: &Self) -> bool {
        Arc::ptr_eq(&a.0, &b.0)
    }
}

impl Deref for Name {
    type Target = str;

    fn deref(&self) -> &str {
        &self.0
    }
}

impl Borrow<str> for Name {
    fn borrow(&self) -> &str {
        &self.0
    }
}

impl From<&str> for Name {
    fn from(text: &str) -> Self {
        Self(Arc::from(text))
    }
}

impl From<String> for Name {
    fn from(text: String) -> Self {
        Self(Arc::from(text))
    }
}

impl From<Arc<str>> for Name {
    fn from(text: Arc<str>) -> Self {
        Self(text)
    }
}

impl From<&Name> for Name {
    fn from(name: &Name) -> Self {
        name.clone()
    }
}

impl From<Name> for String {
    fn from(name: Name) -> Self {
        name.0.as_ref().to_owned()
    }
}

impl PartialEq<&str> for Name {
    fn eq(&self, other: &&str) -> bool {
        &*self.0 == *other
    }
}

impl PartialEq<String> for Name {
    fn eq(&self, other: &String) -> bool {
        *self.0 == **other
    }
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self.as_str(), f)
    }
}

impl fmt::Debug for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{BTreeSet, HashMap};

    #[test]
    fn clones_share_one_allocation() {
        let name = Name::from(String::from("3D_2K_8M"));
        let copy = name.clone();
        assert!(Name::ptr_eq(&name, &copy));
        assert!(!Name::ptr_eq(&name, &Name::from("3D_2K_8M")));
        assert_eq!(name, Name::from("3D_2K_8M"));
    }

    #[test]
    fn behaves_like_its_str() {
        let name = Name::from("a48");
        assert_eq!(name, "a48");
        assert_eq!(name, String::from("a48"));
        assert_eq!(name.len(), 3);
        assert_eq!(format!("{name:<5}|{name:?}"), "a48  |\"a48\"");
        assert_eq!(String::from(name.clone()), "a48");
        let set: BTreeSet<Name> = ["b", "a", "b"].into_iter().map(Name::from).collect();
        assert_eq!(set.iter().map(Name::as_str).collect::<Vec<_>>(), ["a", "b"]);
        let map: HashMap<Name, u32> = [(name, 7)].into_iter().collect();
        assert_eq!(map.get("a48"), Some(&7));
    }
}
