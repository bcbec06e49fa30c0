//! VDP identity tuples.
//!
//! Every Virtual Data Processor is uniquely identified by a tuple — a short
//! string of integers (`prt_tuple_new2(i, j)` in the C API). Tuples are the
//! keys used to wire channels and to map VDPs to threads.
//!
//! Up to [`INLINE`] ids live inside the value (every array in this
//! repository uses at most four), so building, cloning and comparing a
//! tuple touches no allocator.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

/// Most ids a tuple holds, one more than `prt_tuple_new4` takes.
pub(crate) const INLINE: usize = 5;

/// A VDP identity: an ordered string of integers. Equality, ordering and
/// hashing are those of the id slice.
#[derive(Clone)]
pub struct Tuple {
    len: u8,
    ids: [i32; INLINE],
}

impl Tuple {
    /// Build from any integer list. Panics past [`INLINE`] ids, like the
    /// other wiring asserts: an array naming its VDPs so is mis-built.
    pub fn new(ids: impl AsRef<[i32]>) -> Self {
        let ids = ids.as_ref();
        assert!(
            ids.len() <= INLINE,
            "tuple of {} ids exceeds the {INLINE}-id capacity",
            ids.len()
        );
        let mut inline = [0; INLINE];
        inline[..ids.len()].copy_from_slice(ids);
        Tuple {
            len: ids.len() as u8,
            ids: inline,
        }
    }

    /// One-integer tuple (`prt_tuple_new1`).
    pub fn new1(a: i32) -> Self {
        Tuple::new([a])
    }

    /// Two-integer tuple (`prt_tuple_new2`).
    pub fn new2(a: i32, b: i32) -> Self {
        Tuple::new([a, b])
    }

    /// Three-integer tuple (`prt_tuple_new3`).
    pub fn new3(a: i32, b: i32, c: i32) -> Self {
        Tuple::new([a, b, c])
    }

    /// Four-integer tuple (`prt_tuple_new4`).
    pub fn new4(a: i32, b: i32, c: i32, d: i32) -> Self {
        Tuple::new([a, b, c, d])
    }

    /// The components.
    pub fn ids(&self) -> &[i32] {
        &self.ids[..self.len as usize]
    }

    /// Component `k`, panicking when out of range.
    pub fn id(&self, k: usize) -> i32 {
        self.ids()[k]
    }

    /// Number of components.
    pub fn len(&self) -> usize {
        self.ids().len()
    }

    /// Whether the tuple is empty.
    pub fn is_empty(&self) -> bool {
        self.ids().is_empty()
    }
}

impl PartialEq for Tuple {
    fn eq(&self, other: &Self) -> bool {
        self.ids() == other.ids()
    }
}

impl Eq for Tuple {}

impl Hash for Tuple {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.ids().hash(state);
    }
}

impl PartialOrd for Tuple {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Tuple {
    fn cmp(&self, other: &Self) -> Ordering {
        self.ids().cmp(other.ids())
    }
}

impl fmt::Debug for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (k, v) in self.ids().iter().enumerate() {
            if k > 0 {
                write!(f, ",")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

impl From<(i32, i32)> for Tuple {
    fn from((a, b): (i32, i32)) -> Self {
        Tuple::new2(a, b)
    }
}

impl From<(i32, i32, i32)> for Tuple {
    fn from((a, b, c): (i32, i32, i32)) -> Self {
        Tuple::new3(a, b, c)
    }
}

impl From<(i32, i32, i32, i32)> for Tuple {
    fn from((a, b, c, d): (i32, i32, i32, i32)) -> Self {
        Tuple::new4(a, b, c, d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn equality_and_hash() {
        let mut set = HashSet::new();
        set.insert(Tuple::new2(1, 2));
        assert!(set.contains(&Tuple::new2(1, 2)));
        assert!(!set.contains(&Tuple::new2(2, 1)));
        assert!(!set.contains(&Tuple::new3(1, 2, 0)));
    }

    #[test]
    fn display() {
        assert_eq!(Tuple::new3(4, -1, 7).to_string(), "(4,-1,7)");
        assert_eq!(Tuple::new1(9).to_string(), "(9)");
    }

    #[test]
    fn ordering_is_lexicographic() {
        assert!(Tuple::new2(1, 5) < Tuple::new2(2, 0));
        assert!(Tuple::new2(1, 5) < Tuple::new3(1, 5, 0));
    }

    fn hash_of(v: &impl Hash) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    proptest::proptest! {
        /// A tuple is its id list: `Eq`, `Ord`, `Hash` and `Display` are
        /// those of the `Vec<i32>` it was built from. Small id ranges make
        /// equal and prefix-equal pairs common.
        #[test]
        fn agrees_with_its_id_list(
            a in proptest::collection::vec(-2i32..3, 0..INLINE + 1),
            b in proptest::collection::vec(-2i32..3, 0..INLINE + 1),
        ) {
            let (ta, tb) = (Tuple::new(&a), Tuple::new(&b));
            proptest::prop_assert_eq!(ta.ids(), &a[..]);
            proptest::prop_assert_eq!(ta.len(), a.len());
            proptest::prop_assert_eq!(ta == tb, a == b);
            proptest::prop_assert_eq!(ta.cmp(&tb), a.cmp(&b));
            proptest::prop_assert_eq!(hash_of(&ta), hash_of(&a));
            proptest::prop_assert_eq!(ta.clone(), ta.clone());
            let want = format!(
                "({})",
                a.iter().map(i32::to_string).collect::<Vec<_>>().join(",")
            );
            proptest::prop_assert_eq!(ta.to_string(), want.clone());
            proptest::prop_assert_eq!(format!("{ta:?}"), want);
        }
    }

    #[test]
    fn tuples_are_small_and_hold_up_to_inline_ids() {
        assert_eq!(Tuple::new([7; INLINE]).len(), INLINE);
        assert!(std::mem::size_of::<Tuple>() <= 24);
    }

    #[test]
    #[should_panic(expected = "tuple of 6 ids exceeds the 5-id capacity")]
    fn a_longer_tuple_is_refused() {
        Tuple::new([0; INLINE + 1]);
    }
}
