//! A flat table keyed by ordered bucket pairs — the allocation- and hash-free replacement for
//! `HashMap<(BucketId, BucketId), T>` on the refinement hot path.
//!
//! The swap matrix, the gain-histogram set, and the distributed master's probability
//! broadcasts are all keyed by ordered bucket pairs `(from, to)`. Lookups are O(1) index
//! arithmetic with no hashing and no allocation, and iteration visits present entries in
//! ascending `(from, to)` order — exactly the sorted-pairs order the previous `HashMap` call
//! sites established by collecting and sorting keys — so every consumer remains bit-identical
//! to the hash-map implementation.
//!
//! # Memory layout
//!
//! A table is laid out once, before it is filled, by a [`PairLayout`]: the pairs it can hold.
//! Each `from` row spans the range `[min to, max to]` of its pairs, and the rows are packed back
//! to back into one flat slot array, so `(from, to)` lives at slot
//! `row_start[from] + (to − row_lo[from])`. The layout is sized from what the table will hold
//! — the proposals it counts, the keys of the table it is derived from, or the constraint that
//! bounds every proposal — never from the bucket count alone:
//!
//! * under the `All` constraint (direct SHP-k) a row may reach every bucket: the BSP program
//!   lays its tables out as the row-major `from * k + to` index over `k²` slots, and a table
//!   laid out from SHP-k's proposals comes close to that;
//! * under SHP-r's sibling constraint, recursive splitting numbers a group's children
//!   contiguously, so a row spans only its sibling range: about `k·(r − 1)` slots per table
//!   (`k` at arity 2) instead of `k²`. At k = 2048 that is 8 KiB of slots, not 16 MiB.
//!
//! The table is **index-indirect**: each 4-byte slot holds an id (`u32::MAX` = absent) into a
//! compact `Vec<T>` of the entries actually inserted, so large payloads such as per-pair gain
//! histograms (hundreds of bytes each) are stored once per present pair, never per slot. A
//! table never grows: touching a pair outside its layout is a caller bug and panics.

use shp_hypergraph::BucketId;

/// Slot marker for an absent pair.
const ABSENT: u32 = u32::MAX;

/// The set of ordered pairs a [`PairTable`] can hold, as one contiguous `to` range per `from`
/// row packed into a flat slot space.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PairLayout {
    /// `starts[from]..starts[from + 1]` is row `from`'s slot range (`rows + 1` entries, or
    /// none for the empty layout).
    starts: Vec<usize>,
    /// The smallest `to` of every row.
    lo: Vec<BucketId>,
}

impl PairLayout {
    /// Every pair `(from, to)` with `from, to < k`: the row-major `from * k + to` index.
    pub fn dense(k: u32) -> Self {
        let k = k as usize;
        PairLayout {
            starts: (0..=k).map(|row| row * k).collect(),
            lo: vec![0; k],
        }
    }

    /// The smallest layout holding every given pair: each `from` row spans the range between
    /// the smallest and the largest `to` it is given.
    pub fn from_pairs(pairs: impl IntoIterator<Item = (BucketId, BucketId)>) -> Self {
        // (lo, hi) per row; lo > hi marks a row without pairs.
        let mut spans: Vec<(BucketId, BucketId)> = Vec::new();
        for (from, to) in pairs {
            let row = from as usize;
            if row >= spans.len() {
                spans.resize(row + 1, (BucketId::MAX, 0));
            }
            let span = &mut spans[row];
            span.0 = span.0.min(to);
            span.1 = span.1.max(to);
        }
        let mut starts = Vec::with_capacity(spans.len() + 1);
        let mut next = 0usize;
        starts.push(next);
        let lo = spans
            .iter()
            .map(|&(lo, hi)| {
                if lo <= hi {
                    next += (hi - lo) as usize + 1;
                }
                starts.push(next);
                lo.min(hi)
            })
            .collect();
        PairLayout { starts, lo }
    }

    /// Number of slots: the pairs the layout can hold.
    pub fn num_slots(&self) -> usize {
        self.starts.last().copied().unwrap_or(0)
    }

    /// The slot of `(from, to)`, or `None` when the layout cannot hold the pair.
    #[inline]
    pub fn slot(&self, from: BucketId, to: BucketId) -> Option<usize> {
        let row = from as usize;
        let col = to.checked_sub(*self.lo.get(row)?)? as usize;
        let slot = self.starts[row] + col;
        (slot < self.starts[row + 1]).then_some(slot)
    }

    /// Every slot with its pair, in slot order — which is ascending `(from, to)` order.
    fn slots(&self) -> impl Iterator<Item = (usize, (BucketId, BucketId))> + '_ {
        self.lo.iter().enumerate().flat_map(move |(row, &lo)| {
            let start = self.starts[row];
            (start..self.starts[row + 1])
                .map(move |slot| (slot, (row as BucketId, lo + (slot - start) as BucketId)))
        })
    }
}

/// Flat table over the ordered bucket pairs of a [`PairLayout`], indirecting into compact
/// entries.
///
/// Presence is tracked by the slot array, keeping the `HashMap` semantics of "no entry"
/// versus "entry holding the default value". Equality compares **logical content** (the set
/// of present `(pair, value)` entries in pair order), not layout or insertion order, so
/// tables laid out differently compare equal.
#[derive(Debug, Clone)]
pub struct PairTable<T> {
    layout: PairLayout,
    /// One id into `entries` per layout slot; [`ABSENT`] marks an absent pair.
    slots: Vec<u32>,
    /// The present entries, in insertion order.
    entries: Vec<T>,
}

impl<T> PairTable<T> {
    /// Creates a table over `layout`, with every pair absent.
    pub fn new(layout: PairLayout) -> Self {
        PairTable {
            slots: vec![ABSENT; layout.num_slots()],
            layout,
            entries: Vec::new(),
        }
    }

    /// The pairs this table can hold.
    pub fn layout(&self) -> &PairLayout {
        &self.layout
    }

    /// Number of present entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no entry is present.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The entry of `(from, to)` if present. Pairs outside the layout are simply absent.
    #[inline]
    pub fn get(&self, from: BucketId, to: BucketId) -> Option<&T> {
        let slot = self.slots[self.layout.slot(from, to)?];
        (slot != ABSENT).then(|| &self.entries[slot as usize])
    }

    /// Mutable access to the entry of `(from, to)`, inserting `T::default()` if absent.
    ///
    /// # Panics
    /// Panics when the layout cannot hold `(from, to)`: tables are sized before they are
    /// filled and never grow.
    pub fn entry(&mut self, from: BucketId, to: BucketId) -> &mut T
    where
        T: Default,
    {
        let i = self.slot_of(from, to);
        if self.slots[i] == ABSENT {
            self.slots[i] = self.entries.len() as u32;
            self.entries.push(T::default());
        }
        &mut self.entries[self.slots[i] as usize]
    }

    /// Inserts (or replaces) the entry of `(from, to)`.
    ///
    /// # Panics
    /// Panics when the layout cannot hold `(from, to)`, like [`PairTable::entry`].
    pub fn insert(&mut self, from: BucketId, to: BucketId, value: T) {
        let i = self.slot_of(from, to);
        match self.slots[i] {
            ABSENT => {
                self.slots[i] = self.entries.len() as u32;
                self.entries.push(value);
            }
            id => self.entries[id as usize] = value,
        }
    }

    fn slot_of(&self, from: BucketId, to: BucketId) -> usize {
        self.layout
            .slot(from, to)
            .unwrap_or_else(|| panic!("pair ({from}, {to}) lies outside the table's layout"))
    }

    /// Iterates the present entries in ascending `(from, to)` order — the same order the
    /// previous hash-map call sites produced by sorting collected keys.
    pub fn iter(&self) -> impl Iterator<Item = ((BucketId, BucketId), &T)> + '_ {
        self.layout.slots().filter_map(|(slot, pair)| {
            let id = self.slots[slot];
            (id != ABSENT).then(|| (pair, &self.entries[id as usize]))
        })
    }

    /// The present pairs in ascending `(from, to)` order.
    pub fn keys(&self) -> impl Iterator<Item = (BucketId, BucketId)> + '_ {
        self.iter().map(|(pair, _)| pair)
    }
}

impl<T: PartialEq> PartialEq for PairTable<T> {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl<T: Eq> Eq for PairTable<T> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_table_has_no_entries() {
        let t = PairTable::<u64>::new(PairLayout::default());
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
        assert_eq!(t.get(0, 0), None);
        assert_eq!(t.iter().count(), 0);
    }

    #[test]
    fn entry_inserts_and_get_reads_back() {
        let mut t = PairTable::<u64>::new(PairLayout::dense(4));
        *t.entry(1, 3) += 5;
        *t.entry(1, 3) += 2;
        t.insert(3, 0, 9);
        assert_eq!(t.get(1, 3), Some(&7));
        assert_eq!(t.get(3, 0), Some(&9));
        assert_eq!(t.get(0, 1), None);
        assert_eq!(t.get(3, 1), None);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn out_of_range_lookups_are_absent_not_panics() {
        let t = PairTable::<u32>::new(PairLayout::dense(2));
        assert_eq!(t.get(5, 0), None);
        assert_eq!(t.get(0, 5), None);
        assert_eq!(t.get(u32::MAX, u32::MAX), None);
        let sparse = PairTable::<u32>::new(PairLayout::from_pairs([(3, 5), (3, 7)]));
        assert_eq!(sparse.get(3, 4), None);
        assert_eq!(sparse.get(3, 8), None);
        assert_eq!(sparse.get(2, 6), None);
        assert_eq!(sparse.get(0, 0), None);
    }

    #[test]
    fn dense_layout_is_the_row_major_index() {
        let layout = PairLayout::dense(3);
        assert_eq!(layout.num_slots(), 9);
        for from in 0..3 {
            for to in 0..3 {
                assert_eq!(layout.slot(from, to), Some((from * 3 + to) as usize));
            }
        }
        assert_eq!(layout.slot(3, 0), None);
        assert_eq!(layout.slot(0, 3), None);
    }

    #[test]
    fn sibling_pairs_take_one_slot_per_bucket() {
        // Arity-2 siblings (2b, 2b + 1) at k = 2048: one slot per row, not k² slots.
        let k = 2048u32;
        let layout = PairLayout::from_pairs(
            (0..k / 2).flat_map(|b| [(2 * b, 2 * b + 1), (2 * b + 1, 2 * b)]),
        );
        assert_eq!(layout.num_slots(), k as usize);
        let mut t = PairTable::<u64>::new(layout);
        t.insert(2046, 2047, 1);
        t.insert(7, 6, 2);
        assert_eq!(t.get(2046, 2047), Some(&1));
        assert_eq!(t.get(7, 6), Some(&2));
        assert_eq!(t.get(6, 7), None);
        assert_eq!(t.get(6, 8), None);
    }

    #[test]
    fn rows_span_only_their_own_range() {
        let layout = PairLayout::from_pairs([(0, 5), (0, 2), (4, 1), (4, 1)]);
        // Row 0 spans 2..=5 (4 slots), rows 1..=3 are empty, row 4 spans 1..=1.
        assert_eq!(layout.num_slots(), 5);
        assert_eq!(layout.slot(0, 2), Some(0));
        assert_eq!(layout.slot(0, 5), Some(3));
        assert_eq!(layout.slot(4, 1), Some(4));
        assert_eq!(layout.slot(2, 0), None);
        assert_eq!(layout.slot(0, 1), None);
    }

    #[test]
    #[should_panic(expected = "outside the table's layout")]
    fn touching_a_pair_outside_the_layout_panics() {
        let mut t = PairTable::<u64>::new(PairLayout::from_pairs([(0, 1)]));
        t.insert(1, 0, 1);
    }

    #[test]
    fn iteration_is_in_ascending_pair_order() {
        let pairs = [(5u32, 2u32), (0, 3), (2, 1), (0, 1), (5, 0)];
        let mut t = PairTable::<u32>::new(PairLayout::from_pairs(pairs));
        for &(f, to) in &pairs {
            t.insert(f, to, f * 100 + to);
        }
        let keys: Vec<_> = t.keys().collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted);
        assert_eq!(keys, vec![(0, 1), (0, 3), (2, 1), (5, 0), (5, 2)]);
    }

    #[test]
    fn equality_is_logical_not_representational() {
        let mut a = PairTable::<u64>::new(PairLayout::dense(16));
        a.insert(1, 2, 7);
        let mut b = PairTable::<u64>::new(PairLayout::from_pairs([(0, 0), (1, 2)]));
        b.insert(1, 2, 7);
        assert_ne!(a.layout(), b.layout());
        assert_eq!(a, b);
        b.insert(0, 0, 1);
        assert_ne!(a, b);

        // Different insertion orders must still compare equal (entries are indirect).
        let mut c = PairTable::<u64>::new(PairLayout::dense(4));
        c.insert(2, 3, 30);
        c.insert(0, 1, 10);
        let mut d = PairTable::<u64>::new(PairLayout::dense(4));
        d.insert(0, 1, 10);
        d.insert(2, 3, 30);
        assert_eq!(c, d);
    }

    #[test]
    fn payloads_are_stored_once_per_present_pair_not_per_slot() {
        // The memory contract behind the indirect layout: a large-payload table over a big
        // bucket range must hold exactly `len()` payloads, however many slots it has.
        let mut t = PairTable::<[u64; 49]>::new(PairLayout::dense(2001));
        t.insert(2000, 7, [1; 49]);
        t.insert(7, 2000, [2; 49]);
        assert_eq!(t.layout().num_slots(), 2001 * 2001);
        assert_eq!(t.len(), 2);
        assert_eq!(t.get(2000, 7), Some(&[1; 49]));
        assert_eq!(t.get(7, 2000), Some(&[2; 49]));
    }
}
